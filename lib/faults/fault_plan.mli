(** Composable, declarative fault schedules.

    A plan is a pure description — nothing touches the network until
    {!Injector.arm} translates it into engine events.  Plans compose by
    {!union}, so a scenario can mix one-shot cuts, periodic flaps,
    Poisson-like churn and message impairments over any set of links and
    routers.  All randomness a plan implies (churn arrival times, loss
    draws) is deferred to the injector's {!Mutil.Rng} stream, keeping every
    schedule reproducible from a seed. *)

open Net

type target =
  | Link of Asn.t * Asn.t  (** a BGP peering (session + message channel) *)
  | Router of Asn.t  (** a whole AS's router *)

val link : Asn.t -> Asn.t -> target
(** Convenience constructor. @raise Invalid_argument on a self loop. *)

val router : Asn.t -> target

val target_to_string : target -> string

(** One scheduling shape.  Construct through the functions below, which
    validate parameters; the representation is exposed so injectors can
    pattern-match. *)
type spec =
  | Fail of { target : target; at : float; duration : float option }
      (** down at [at]; recovered after [duration] ([None] = forever) *)
  | Flap of {
      target : target;
      start : float;
      period : float;
      down_for : float;
      until : float;
    }  (** deterministic periodic flapping: down at [start],
          [start + period], … (each outage lasting [down_for]) while the
          cycle starts at or before [until] *)
  | Churn of {
      targets : target list;
      start : float;
      rate : float;
      mean_downtime : float;
      until : float;
    }  (** memoryless churn: fault arrivals form a Poisson-like process
          with exponential inter-arrival times at [rate] events/second;
          each arrival picks a target uniformly and, if it is currently
          up, takes it down for an exponential downtime with mean
          [mean_downtime] *)
  | Impair of {
      a : Asn.t;
      b : Asn.t;
      at : float;
      duration : float option;
      impairment : Bgp.Network.impairment;
    }  (** probabilistic message loss / duplication / delay jitter on one
          link, installed at [at] and removed after [duration] *)

type t = spec list
(** A plan: an unordered bag of fault specs. *)

val empty : t

val union : t -> t -> t
(** Both plans together. *)

val all : t list -> t
(** N-ary {!union}. *)

val fail : ?duration:float -> at:float -> target -> t
(** One-shot failure (link down or router crash); recovery after
    [duration] when given.  @raise Invalid_argument on negative times. *)

val flap :
  start:float -> period:float -> down_for:float -> until:float -> target -> t
(** Periodic flapping.  @raise Invalid_argument unless
    [0 < down_for < period] and [start <= until]. *)

val churn :
  ?start:float ->
  rate:float ->
  mean_downtime:float ->
  until:float ->
  target list ->
  t
(** Poisson-like churn over a target pool (see {!spec}).
    @raise Invalid_argument on a non-positive rate or mean downtime, or an
    empty pool. *)

val impair :
  ?duration:float ->
  ?loss:float ->
  ?duplicate:float ->
  ?jitter:float ->
  at:float ->
  Asn.t ->
  Asn.t ->
  t
(** Message impairment on the [a]–[b] peering (defaults all zero; see
    {!Bgp.Network.impairment}). *)

val link_targets : Topology.As_graph.t -> target list
(** Every peering of a topology, as churn targets. *)

val targets : t -> target list
(** Every target a plan mentions (with repetitions). *)

val size : t -> int
(** Number of specs. *)

val to_string : t -> string
(** One line per spec, for logs. *)
