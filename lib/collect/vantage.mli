(** A collection vantage point: one RouteViews-style collector peered to a
    chosen set of ASes of a {!Bgp.Network}, recording their export streams
    as timestamped {!Stream.Monitor} events.

    The vantage taps the network's {!Bgp.Network.set_update_tap} hook and
    keeps, per (feed AS, prefix), the origin last exported — collapsing
    the per-destination fan-out of one advertisement — plus a refcount of
    feeds currently carrying each (prefix, origin).  Emitted events are
    origin-level transitions of that refcounted view: an origin appears
    when its first feed reports it and is withdrawn only when its last
    feed drops it, so two feeds disagreeing on the best route make the
    vantage see both origins at once — the collector's-eye MOAS the
    paper's multi-vantage argument relies on.  Event times are the engine
    clock in integer milliseconds ({!millis}).

    The second half of the module replays the synthetic RouteViews archive
    as a mesh workload: {!replay} deterministically splits the archive's
    update stream over N simulated collectors, every event reaching at
    least one of them. *)

open Net

type spec = { v_name : string; v_peers : Asn.Set.t }
(** A vantage declaration: a unique name and the ASes it peers with. *)

val spec : name:string -> Asn.t list -> spec
(** @raise Invalid_argument on an empty name or peer list. *)

type t
(** A live recorder, produced by {!attach}. *)

val attach : ?metrics:Obs.Registry.t -> Bgp.Network.t -> spec list -> t list
(** Install the network's update tap and return one recorder per spec, in
    spec order.  Updates emitted by an AS no vantage peers with are counted
    on [metrics] as [collect_updates_dropped] (registered lazily, only when
    one is actually dropped); recorded events bump [collect_events_total]
    labelled by vantage.  Replaces any previously installed tap.
    @raise Invalid_argument on duplicate vantage names or a peer outside
    the network's topology. *)

val name : t -> string

val events : t -> Stream.Monitor.event array
(** Everything recorded so far, in capture order (non-decreasing time). *)

val event_count : t -> int

val streams : t list -> (string * Stream.Monitor.event array) list
(** [(name, events)] per vantage — the input shape {!Mesh.run} consumes. *)

val millis : float -> int
(** Engine seconds to the integer milliseconds used as event time. *)

val replay :
  ?coverage:float ->
  vantages:int ->
  seed:int64 ->
  Stream.Source.batch array ->
  (string * Stream.Monitor.event array) list
(** Split an archive's event stream over [vantages] simulated collectors
    ["rv00"], ["rv01"], ….  Each event independently reaches each vantage
    with probability [coverage] (default 1.0: every collector sees the full
    feed) and is always forced to at least one deterministically chosen
    vantage, so the deduplicated union of the per-vantage streams is
    exactly the input stream.  Deterministic from [seed].
    @raise Invalid_argument on [vantages < 1] or [coverage] outside
    [0,1]. *)
