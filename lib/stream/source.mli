(** Stream sources for the online monitor: adapters that turn the
    synthetic RouteViews archive, MRT table-dump bytes or decoded BGP
    wire messages into timestamped event batches.

    The archive adapter replays the generator's daily deltas
    ({!Measurement.Synthetic_routeviews.delta_seq}): only origin-set
    changes become announce/withdraw events, with withdrawals ordered
    before the re-announcements that carry a prefix's refreshed MOAS
    list.  No table is built or compared.  Each
    observed day is one batch (fed to {!Sharded.ingest_batch} with
    [~day_end:true]), so per-episode day counts are the paper's Section 3
    durations ({!Report.section3}).

    The table adapter {!of_table} serves the paper's Section 4.2 off-line
    monitor, which polls the routing tables of several feeds. *)

open Net

type batch = {
  time : int;  (** batch timestamp, seconds (day boundary for the archive) *)
  day : Mutil.Day.t option;  (** the observed day, for archive batches *)
  events : Monitor.event array;
}

val day_seconds : int
(** 86400: archive timestamps are [day * day_seconds], with days counted
    from 1997-01-01 like {!Mutil.Day}. *)

type annotator = Prefix.t -> Asn.Set.t -> Asn.t -> Asn.Set.t option
(** [annotate prefix origins origin] is the MOAS list that [origin]
    attaches when announcing [prefix] while the full origin set is
    [origins] — the archive records no community attributes, so list
    placement is a replay policy. *)

val no_annotation : annotator
(** No announcement carries a list: every conflict raises an alert. *)

(** {2 The uniform pull interface}

    Every source — the synthetic archive, MRT table dumps, decoded wire
    messages, pre-materialised batches — opens as a {!t} and is drained
    with {!next}/{!close}.  The serving daemon's live tail and the batch
    [monitor] subcommand both ingest through
    {!Sharded.ingest_source}, so there is exactly one ingestion entry
    point regardless of where the updates come from. *)

type t
(** An open, single-pass stream of batches. *)

val next : t -> batch option
(** Pull the next batch; [None] once exhausted or after {!close}. *)

val close : t -> unit
(** Release the source; subsequent {!next} calls return [None].
    Idempotent. *)

val fold : t -> init:'a -> f:('a -> batch -> 'a) -> 'a
(** Drain the source (closing it when done, also on exceptions). *)

val of_archive :
  ?annotate:annotator -> Measurement.Synthetic_routeviews.params -> t
(** The synthetic RouteViews archive as a pull source: one batch per
    observed day, generated on demand from that day's deltas. *)

val of_batches : batch array -> t
(** A pre-materialised batch sequence. *)

val of_seq : batch Seq.t -> t
(** Any single-pass batch producer. *)

val trusted_annotator : ?distrusted:Asn.Set.t -> unit -> annotator
(** Cooperating origins advertise the full (consistent) origin set —
    legitimate multi-homing conflicts validate cleanly — except when the
    set involves a [distrusted] AS, in which case nobody vouches for the
    announcement and the conflict is flagged.  Replaying the archive with
    the two fault ASes distrusted makes the alert stream spike exactly at
    1998-04-07 and 2001-04-06. *)

val fault_annotator : annotator
(** {!trusted_annotator} with the archive's two fault ASes
    ({!Measurement.Synthetic_routeviews.fault_as_1998} and
    [fault_as_2001]) distrusted: the replay policy of every archive run in
    the CLI and the tests. *)

val fold_archive :
  ?annotate:annotator ->
  Measurement.Synthetic_routeviews.params ->
  init:'a ->
  f:('a -> batch -> 'a) ->
  'a
(** Fold over the archive's observed days as event batches, in
    chronological order, holding only one day's deltas in memory. *)

val archive_batches :
  ?annotate:annotator ->
  Measurement.Synthetic_routeviews.params ->
  batch array
(** The whole archive materialised (for benchmarks that want to time the
    monitor without the generator). *)

val of_wire : time:int -> peer:Asn.t -> Bgp.Wire.message -> Monitor.event array
(** Events carried by one decoded BGP UPDATE: withdrawals (attributed to
    [peer]) then announcements (origin = AS-path tail, falling back to
    [peer]; MOAS list decoded from the community attribute). *)

val of_table : time:int -> peer:Asn.t -> Bgp.Route.t list -> Monitor.event array
(** A feed's routing table (its Loc-RIB, as downloaded by the off-line
    monitor) as one announcement per route: origin
    {!Bgp.Route.origin_as} [~self:peer], MOAS list decoded from the
    route's communities.  Nothing is withdrawn: a route missing from a
    later poll stays announced. *)

val of_mrt : bytes -> batch
(** One batch per TABLE_DUMP blob, via the constant-memory
    {!Measurement.Mrt.fold_records}; every record is an announcement and
    the batch time is the latest record timestamp. *)
