(** A BGP network: one {!Router} per AS of an {!Topology.As_graph.t},
    connected through the discrete-event engine with per-link message
    latency.  This corresponds to the paper's SSFnet set-up, where each
    simulation node is one AS and each link a BGP peering.

    The network also owns the fault surface the [faults] library drives:
    sessions can fail and recover, routers can crash and restart, and
    individual links can be impaired with probabilistic message loss,
    duplication and delay jitter.  A network with no faults configured
    behaves exactly as one built before the fault layer existed
    (pay-for-what-you-use), and registers no fault metrics. *)

open Net

type t
(** A wired network. *)

type impairment = {
  loss : float;  (** probability each message is dropped, in [0,1] *)
  duplicate : float;  (** probability each delivered message is doubled *)
  jitter : float;  (** extra delay drawn uniformly from [0, jitter) *)
}
(** Probabilistic per-link message impairment.  Loss is decided first;
    a delivered message is then jittered and possibly duplicated (the
    duplicate gets its own jitter draw, so copies may reorder). *)

val impairment :
  ?loss:float -> ?duplicate:float -> ?jitter:float -> unit -> impairment
(** Build an impairment (all fields default to 0).
    @raise Invalid_argument on probabilities outside [0,1] or negative
    jitter. *)

(** Per-network construction knobs, gathered in one record so that a new
    knob (the obs registry being the first) widens this type rather than
    every construction site.  Build one with {!Config.default} and the
    [with_*] helpers:
    {[
      Network.make
        ~config:Network.Config.(default |> with_mrai_of (fun _ -> 30.0))
        graph
    ]} *)
module Config : sig
  type t = {
    policy_of : Asn.t -> Policy.t;  (** per-AS routing policy *)
    validator_of : Asn.t -> Router.validator option;
        (** per-AS route validator (the MOAS detector hook) *)
    mrai_of : Asn.t -> float;  (** per-AS MRAI, seconds (0 = none) *)
    damping_of : Asn.t -> Router.damping option;
        (** per-AS route-flap damping (None = off) *)
    metrics : Obs.Registry.t;
        (** observability registry wired into the engine and every
            router; {!Obs.Registry.noop} collects nothing at zero cost *)
  }

  val default : t
  (** Default policy, no validators, MRAI 0, no damping, and the no-op
      registry. *)

  val with_policy_of : (Asn.t -> Policy.t) -> t -> t
  val with_validator_of : (Asn.t -> Router.validator option) -> t -> t
  val with_mrai_of : (Asn.t -> float) -> t -> t
  val with_damping_of : (Asn.t -> Router.damping option) -> t -> t
  val with_metrics : Obs.Registry.t -> t -> t
end

val make : ?config:Config.t -> Topology.As_graph.t -> t
(** Build a router per AS and a session per edge, configured by
    [config] (default {!Config.default}).

    Every message on the session from AS [a] to AS [b] takes 1.0 plus a
    small deterministic offset of [a] and [b], in [0, 0.25), which breaks
    timing symmetry the way heterogeneous links do in reality.

    The wiring is resolved once per graph: every router gets all its
    peers at creation (its session slots, in increasing AS order), and
    for each directed link the receiving router, the receiver's slot for
    the sender and the delay are computed up front.  A send then costs
    no lookup: the router names its slot, and the message goes to the
    receiver's slot directly.  The wiring depends on the graph alone, so
    the last one built on a domain is kept and reused by the next
    network over the same graph (physically): a sweep of scenarios over
    one topology pays for its routers, not for its topology. *)

val dispose : t -> unit
(** Retire a network its owner is done with: its routers and pending
    events are dropped, so a later query of a router raises
    [Invalid_argument] and the totals read 0.  A network disposed of
    before the next minor collection is then never promoted to the major
    heap, which a network merely dropped would be (the remembered set
    holds every slot of its routers array, written young), and the next
    network over the same graph reuses its routers array: dispose of a
    network on the domain that built it. *)

val engine : t -> Sim.Engine.t
(** The underlying event engine (for custom scheduling). *)

(** {2 Export tap}

    The hook the collector mesh ([lib/collect]) builds on: a passive
    observer of every UPDATE a router emits. *)

type update_tap = time:float -> src:Asn.t -> dst:Asn.t -> Update.t -> unit
(** Called once per emitted UPDATE with the engine time, the sending AS,
    the peer it was sent towards and the message itself.  The tap fires at
    emission (the Adj-RIB-Out stream), before link impairments decide the
    message's fate, and must not mutate the network. *)

val set_update_tap : t -> update_tap option -> unit
(** Install (or clear, with [None]) the network's update tap.  At most one
    tap is installed at a time; installing a new one replaces the old.
    A network without a tap pays a single branch per message. *)

val graph : t -> Topology.As_graph.t
(** The topology the network was built over. *)

val router : t -> Asn.t -> Router.t
(** The router of an AS. @raise Not_found for an unknown AS. *)

val originate :
  ?at:float ->
  ?origin:Route.origin_attr ->
  ?local_pref:int ->
  ?communities:Community.Set.t ->
  ?as_path:As_path.t ->
  t ->
  Asn.t ->
  Prefix.t ->
  unit
(** Schedule an origination of [prefix] by the AS at time [at] (default 0).
    [as_path] forges the announced path (see {!Route.originate}).  An
    origination executing while the router is crashed still enters its
    startup configuration (and local table) but propagates nowhere until
    {!restart_router_now}. *)

val withdraw : ?at:float -> t -> Asn.t -> Prefix.t -> unit
(** Schedule the AS to stop originating the prefix. *)

(** {2 Faults}

    Each fault applies at the engine's current time.  [Faults.Injector]
    calls these from inside its own scheduled, cancellable events, so a
    cancelled fault leaves no stale network action in the queue. *)

val fail_link_now : t -> Asn.t -> Asn.t -> unit
(** Fail the session on the peering between two ASes: both ends flush the
    routes learned over it and in-flight messages on the link are lost.
    Idempotent while down.  @raise Invalid_argument if the ASes do not
    peer. *)

val restore_link_now : t -> Asn.t -> Asn.t -> unit
(** Re-establish a failed session; both ends perform the initial table
    exchange.  If an endpoint router is crashed only the link is repaired:
    the session comes back with its {!restart_router_now}.  Idempotent
    while up. *)

val crash_router_now : t -> Asn.t -> unit
(** Crash a router: its RIBs, sessions, MRAI timers and damping state are
    lost; every live neighbour tears its session down and withdraws the
    routes it had learned from the AS.  In-flight messages from or to the
    router are lost.  Static configuration (originated prefixes,
    aggregates, policy, validator) survives for the restart.  Idempotent
    while down.  @raise Invalid_argument for an AS outside the topology. *)

val restart_router_now : t -> Asn.t -> unit
(** Reboot a crashed router: it re-installs its configured originations
    and re-establishes a session over every up link to every live
    neighbour (table exchange both ways).  Idempotent while up. *)

val impair_link : t -> rng:Mutil.Rng.t -> Asn.t -> Asn.t -> impairment -> unit
(** Install (or replace) a message impairment on a peering, effective
    immediately for subsequently sent messages.  All probabilistic draws
    come from [rng] — supply a dedicated split so runs stay reproducible.
    @raise Invalid_argument if the ASes do not peer. *)

val clear_link_impairment : t -> Asn.t -> Asn.t -> unit
(** Remove a link's impairment (messages already in flight keep any jitter
    they were scheduled with). *)

val link_impairment : t -> Asn.t -> Asn.t -> impairment option
(** The impairment currently installed on a peering, if any. *)

val link_is_up : t -> Asn.t -> Asn.t -> bool
(** Current state of a peering (true unless failed). *)

val router_is_up : t -> Asn.t -> bool
(** Current state of a router (true unless crashed). *)

val run : ?max_events:int -> t -> Sim.Engine.outcome
(** Run the engine until quiescence (BGP convergence) or the event budget
    (default 10 million, a safety net against protocol oscillation). *)

val best_route : t -> Asn.t -> Prefix.t -> Route.t option
(** The AS's selected route after a run. *)

val best_origin : t -> Asn.t -> Prefix.t -> Asn.t option
(** Origin AS of the selected route. *)

val fold_best : t -> Prefix.t -> (Asn.t -> Route.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_best t prefix f init] folds [f] over every AS whose router has
    a best route for the prefix, in increasing AS order. *)

val forward_path : t -> from:Asn.t -> Ipv4.t -> Asn.t list option
(** AS-level packet forwarding: starting at [from], repeatedly follow the
    longest-prefix-match best route's supplier until an AS that originates
    the covering prefix is reached.  Returns the traversed ASes (including
    both ends), or [None] when some hop has no route or forwarding loops —
    this is how hijacked traffic "arrives at the faulty AS and gets
    dropped" (Section 3.3). *)

val delivered_to : t -> from:Asn.t -> Ipv4.t -> Asn.t option
(** Final AS of {!forward_path}: where a packet for the address actually
    lands when sent from [from]. *)

val total_updates_sent : t -> int
(** Sum of UPDATE messages emitted by all routers (message overhead). *)

val total_updates_received : t -> int
(** Sum of UPDATE messages processed by all routers. *)
