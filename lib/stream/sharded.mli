(** Parallel ingest for the online monitor: prefixes are hash-partitioned
    over [jobs] {!Monitor} shards and each batch is processed on the
    {!Exec.Pool} domain pool.

    Because per-prefix state is independent and the partition preserves
    per-prefix event order, the merged {!snapshot} — and therefore the
    rendered report and the checkpoint bytes — is byte-identical at every
    job count.  Per-shard metric registries are merged additively with
    {!Obs.Registry.merge}, so counter totals are job-count-invariant too
    (wall-clock instruments, of course, are not). *)

type t

val create : ?metrics:Obs.Registry.t -> ?jobs:int -> Monitor.config -> t
(** [jobs] defaults to {!Exec.Pool.default_jobs} and is clamped to at
    least 1.  When [metrics] is live, each shard gets its own registry
    (merged on demand by {!metrics}) and [metrics] itself receives the
    driver-side instruments: [stream_batches_total], [stream_days_total],
    the [stream_batch_seconds] ingest-latency histogram, and the
    [stream_open_episodes] gauge. *)

val jobs : t -> int

val ingest_batch : ?day_end:bool -> t -> time:int -> Monitor.event array -> unit
(** Partition one batch across the shards and process it in parallel.
    Each shard ends the batch with {!Monitor.settle} at [time] — or, when
    [day_end] is set, {!Monitor.mark_day} (the batch closed an observed
    collection day).  Batches smaller than {!parallel_threshold} are
    ingested inline (shards in index order) because a domain spawn costs
    more than they do; either dispatch yields identical shard state. *)

val parallel_threshold : int
(** Minimum batch size (in events) at which ingest is dispatched on the
    {!Exec.Pool} rather than inline. *)

val ingest_source :
  ?since:int ->
  ?max_batches:int ->
  ?on_batch:(t -> Source.batch -> unit) ->
  t ->
  Source.t ->
  int
(** Drain a {!Source.t} into the monitor — the {e single} ingestion
    entry point shared by the batch [monitor] subcommand and the serving
    daemon's live tail.  Batches at or before [since] are skipped
    (checkpoint resume); a batch carrying a [day] is ingested with
    [~day_end:true]; [on_batch] runs after each ingested batch (its
    exceptions propagate, which is how callers stop early); at most
    [max_batches] batches are ingested, the rest stay in the source for
    a later call.  Returns the number of batches ingested.

    Failure is contained: if the source's pull, the ingest, or [on_batch]
    raises, the source is {!Source.close}d before the exception escapes
    (no half-drained source leaks), and the monitor's state at the
    failure point is defined — every batch for which [on_batch] ran (or
    would have run) is fully ingested and settled.  A pull or [on_batch]
    failure therefore leaves the monitor exactly at the last completed
    batch; only a failure {e inside} {!ingest_batch} itself (e.g. a
    malformed event) can leave the current batch partially applied, which
    is why crash-recovery restarts from the last checkpoint rather than
    trusting in-memory state. *)

val open_count : t -> int
(** Currently open episodes, summed over shards. *)

val update_count : t -> int
(** Events ingested, summed over shards. *)

val day_count : t -> int
(** Observed days marked so far. *)

val batch_alerts : t -> Monitor.alert list
(** The episode alerts of the latest {!ingest_batch}: every shard's
    {!Monitor.batch_alerts}, merged in {!Monitor.compare_alert} order.
    Identical at any job count: shards ingest each batch against one
    shared stream clock, so a [Flagged] alert's time does not depend on
    which shard owns the prefix. *)

val snapshot : t -> Monitor.snapshot
(** The merged canonical snapshot of all shards (see
    {!Monitor.merge_snapshots}); identical at any job count. *)

val of_snapshot :
  ?metrics:Obs.Registry.t -> ?jobs:int -> Monitor.snapshot -> t
(** Rebuild a sharded monitor from a (merged) snapshot, re-partitioning
    the per-prefix state over the requested job count — a checkpoint
    taken at one [--jobs] setting restores at any other. *)

val metrics : t -> Obs.Registry.t
(** A fresh registry holding the merge of the driver registry and every
    shard registry (empty when metrics were disabled). *)
