(** A simulated BGP speaker: one router standing for one AS, as in the
    paper's SSFnet model.

    The router consumes UPDATE messages, applies import policy and an
    optional route validator (the hook the MOAS detector plugs into), runs
    the decision process, and emits UPDATEs to its peers — respecting
    split-horizon and an optional per-peer MRAI (minimum route
    advertisement interval). *)

open Net

type validator = now:float -> prefix:Prefix.t -> Route.t list -> Route.t list
(** A validator sees every candidate route for a prefix (locally originated
    and Adj-RIB-In) and returns the subset the decision process may use.
    The MOAS detector is implemented as such a function; [None] on the
    router means every candidate is eligible (plain BGP). *)

type t
(** Mutable router state. *)

type damping = {
  penalty_withdraw : float;  (** penalty added per withdrawal flap *)
  penalty_update : float;  (** penalty added per re-announcement flap *)
  suppress_threshold : float;  (** penalty at which the route is suppressed *)
  reuse_threshold : float;  (** decayed penalty at which it is reusable *)
  half_life : float;  (** exponential decay half-life, seconds *)
}
(** Route-flap damping parameters (RFC 2439). *)

val default_damping : damping
(** The classic defaults: 1000/500 penalties, suppress at 2000, reuse at
    750, 900-second half-life. *)

val create :
  ?policy:Policy.t ->
  ?validator:validator ->
  ?mrai:float ->
  ?damping:damping ->
  ?metrics:Obs.Registry.t ->
  Asn.t ->
  t
(** A router for the given AS.  [mrai] is the per-peer minimum interval
    between advertisement batches (default 0: advertise immediately);
    [damping] enables route-flap damping (default off).

    [metrics] (default {!Obs.Registry.noop}) receives per-AS
    instrumentation, each labelled [("as", asn)]: counters
    [bgp_updates_sent], [bgp_updates_received] and [bgp_decisions]
    (decision-process invocations), and gauge [bgp_loc_rib_size]. *)

val flap_penalty : t -> peer:Asn.t -> Prefix.t -> now:float -> float
(** Current (decayed) damping penalty of the peer's route for the prefix;
    0 when damping is off or the route never flapped. *)

val is_suppressed : t -> peer:Asn.t -> Prefix.t -> now:float -> bool
(** Whether damping currently keeps that route out of the decision. *)

val add_peer : t -> Asn.t -> unit
(** Declare a BGP session with a neighbouring AS (idempotent). *)

val add_peers : t -> Asn.Set.t -> unit
(** {!add_peer} for every AS of the set, in one step. *)

val peers : t -> Asn.t list
(** Current peers in increasing AS order. *)

val set_transport :
  t ->
  send:(peer:Asn.t -> Update.t -> unit) ->
  schedule:(delay:float -> (float -> unit) -> unit) ->
  unit
(** Wire the router to the network: [send] delivers an update towards a
    peer; [schedule] runs a callback after a delay (used by MRAI timers).
    Must be called before any traffic is processed. *)

val originate : t -> now:float -> Route.t -> unit
(** Start originating a route (built with {!Route.originate}); announces to
    all peers. *)

val withdraw_origin : t -> now:float -> Prefix.t -> unit
(** Stop originating a prefix. *)

val handle_update : t -> now:float -> Update.t -> unit
(** Process one incoming UPDATE (loop detection, policy, validation,
    decision, propagation). *)

val best : t -> Prefix.t -> Route.t option
(** Loc-RIB entry for the prefix. *)

val best_origin : t -> Prefix.t -> Asn.t option
(** Origin AS of the selected route (the router itself when it originates
    the prefix). *)

val rib : t -> Rib.t
(** Direct access to the RIBs for tests and metrics. *)

val updates_received : t -> int
(** Number of UPDATE messages processed. *)

val updates_sent : t -> int
(** Number of UPDATE messages emitted. *)

val refresh : t -> now:float -> Prefix.t -> unit
(** Re-run validation, decision and advertisement for a prefix without new
    input — used when a validator's external knowledge changes. *)

val peer_down : t -> now:float -> Asn.t -> unit
(** The session to a peer dropped: flush every route learned from it,
    forget what was advertised to it, re-select the affected prefixes and
    propagate the fallout.  No-op for an unknown peer. *)

val peer_up : t -> now:float -> Asn.t -> unit
(** (Re-)establish a session: register the peer and advertise the current
    Loc-RIB to it, as a BGP speaker does after session establishment. *)

val crash : t -> unit
(** The router process dies: RIBs, session set, advertisement memory, MRAI
    timers and damping state are all lost.  Static configuration
    (originated prefixes, aggregation rules, policy, validator) survives —
    it lives in the startup config, not the process.  Peers must be told
    separately ({!peer_down} on each neighbour); the network layer does
    this. *)

val restart : t -> now:float -> unit
(** Boot after a {!crash}: re-install the configured originations and
    aggregates into the Loc-RIB.  Sessions are still down; bring each back
    with {!peer_up} (on both ends) to trigger the table exchange. *)

val configure_aggregate : t -> now:float -> Prefix.t -> unit
(** Configure route aggregation for a summary prefix: whenever the Loc-RIB
    holds at least one route strictly inside the summary, the router
    originates the summary with the children's paths combined (common head
    sequence followed by an AS_SET — the paper's footnote 1).  The
    aggregate disappears with its last child. *)

val remove_aggregate : t -> now:float -> Prefix.t -> unit
(** Drop an aggregation rule (and the aggregate, if currently active). *)
