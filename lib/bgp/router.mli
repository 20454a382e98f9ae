(** A simulated BGP speaker: one router standing for one AS, as in the
    paper's SSFnet model.

    The router consumes UPDATE messages, applies import policy and an
    optional route validator (the hook the MOAS detector plugs into), runs
    the decision process, and emits UPDATEs to its peers — respecting
    split-horizon and an optional per-peer MRAI (minimum route
    advertisement interval). *)

open Net

type verdict =
  | Keep  (** the moved route is kept (a withdrawal is always [Keep]) *)
  | Drop  (** the moved route is discarded *)
  | Rescan  (** no verdict on one route: filter every candidate *)

type validator = {
  filter : now:float -> prefix:Prefix.t -> Route.t list -> Route.t list;
      (** sees every candidate route for a prefix (locally originated
          first, then the Adj-RIB-In in peer-AS order) and returns the
          subset the decision process may use, the list itself when it
          keeps every route *)
  judge :
    (prefix:Prefix.t ->
    incumbent:Route.t option ->
    previous:Route.t option ->
    Route.t option ->
    verdict)
    option;
      (** the verdict on one moved candidate, if the validator offers
          one: [judge ~prefix ~incumbent ~previous moved] *)
}
(** A route validator: the hook the MOAS detector plugs into.  [None] on
    the router means every candidate is eligible (plain BGP).

    The verdict contract.  The router asks [judge] only after an UPDATE
    from a peer, without damping, when the prefix's previous decision
    saw the same candidates but for that peer's entry: its last decision
    called [filter] or [judge], and nothing else changed the candidates
    since (a crash forces [filter]).  [previous] is the peer's old entry,
    [moved] its new one ([None]: withdrawn), and [incumbent] the
    installed best route, which the last decision kept and which is not
    the peer's.  [judge] must answer exactly as [filter] over the new
    candidates would: [Keep] when that [filter] keeps every route it kept
    before, less [previous], plus [moved]; [Drop] when it keeps the same
    but for [moved]; otherwise [Rescan], after which the router calls
    [filter].  [Keep] and [Drop] must leave the validator's state, counts
    and alarms as that [filter] call would, and [Rescan] must leave them
    untouched.  A validator whose verdicts
    keep incremental state per prefix belongs to the one router that uses
    it. *)

val scan_only : (now:float -> prefix:Prefix.t -> Route.t list -> Route.t list) -> validator
(** A validator without a verdict: [filter] runs at every decision. *)

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
  ?peers:Asn.t array ->
  Asn.t ->
  t
(** A router for the given AS.  [mrai] is the per-peer minimum interval
    between advertisement batches (default 0: advertise immediately);
    [damping] enables route-flap damping (default off).

    [peers] (default none) are the router's sessions, all established,
    and the only ones it will ever have: strictly increasing, without the
    router's own AS, and never mutated afterwards, since the router keeps
    the array itself as its slot order.  An UPDATE or a {!peer_up} for
    any other AS is refused.

    [metrics] (default {!Obs.Registry.noop}) receives per-AS
    instrumentation, each labelled [("as", asn)]: counters
    [bgp_updates_sent], [bgp_updates_received] and [bgp_decisions]
    (decision-process invocations), and gauge [bgp_loc_rib_size].
    @raise Invalid_argument when [peers] is not strictly increasing or
    contains the router's own AS. *)

val flap_penalty : t -> peer:Asn.t -> Prefix.t -> now:float -> float
(** Current (decayed) damping penalty of the peer's route for the prefix;
    0 when damping is off or the route never flapped. *)

val is_suppressed : t -> peer:Asn.t -> Prefix.t -> now:float -> bool
(** Whether damping currently keeps that route out of the decision. *)

val peers : t -> Asn.t list
(** Peers with an established session, in increasing AS order. *)

(** {2 Transport}

    A router has one session slot per peer given to {!create}, in
    increasing AS order, fixed for its life: no slot is added or
    removed.  {!peer_down} and {!crash} mark a session down, and
    {!peer_up} brings the same slot back, so a transport may resolve a
    slot once (to the receiving router and the link) and keep the result
    for the router's life.

    The router sends on established sessions only, each UPDATE once,
    naming the peer and its slot; an UPDATE is immutable and may be
    sent to several peers.  A transport that delivers an UPDATE to a
    router hands it to {!handle_update} with the receiver's slot for the
    sender, which saves the lookup. *)

val set_transport :
  t ->
  send:(peer:Asn.t -> slot:int -> Update.t -> unit) ->
  schedule:(delay:float -> (float -> unit) -> unit) ->
  unit
(** Wire the router to the network: [send ~peer ~slot update] delivers
    an update towards the peer at [slot]; [schedule] runs a callback
    after a delay (used by MRAI timers and damping).  Must be called
    before any traffic is processed. *)

val originate : t -> now:float -> Route.t -> unit
(** Start originating a route (built with {!Route.originate}); announces to
    all peers. *)

val withdraw_origin : t -> now:float -> Prefix.t -> unit
(** Stop originating a prefix. *)

val handle_update : ?slot:int -> t -> now:float -> Update.t -> unit
(** Process one incoming UPDATE (loop detection, policy, validation,
    decision, propagation).  [slot] is the sender's slot, which a
    transport knows (see {!set_transport}); without it the sender is
    looked up by AS.
    @raise Invalid_argument when the sender has no slot: a router takes
    UPDATEs only from the peers it was created with. *)

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
(** Re-establish a session that is down and advertise the current
    Loc-RIB to the peer, as a BGP speaker does after session
    establishment; no-op while the session is up.
    @raise Invalid_argument for an AS that is not one of the router's
    peers. *)

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
