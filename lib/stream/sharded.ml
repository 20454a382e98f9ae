module Registry = Obs.Registry

type t = {
  jobs : int;
  shards : Monitor.t array;
  shard_metrics : Registry.t array;
  driver : Registry.t;
  (* persistent counting-sort scratch for {!ingest_batch}: the batch path
     allocates nothing per event once these have grown to the steady
     batch size *)
  p_counts : int array;
  p_offsets : int array;
  p_cursors : int array;
  mutable p_shard_idx : int array;
  mutable p_scratch : Monitor.event array;
  m_batches : Registry.Counter.t;
  m_days : Registry.Counter.t;
  h_batch : Registry.Histogram.t;
  g_open : Registry.Gauge.t;
}

let shard_of t prefix = Net.Prefix.hash prefix mod t.jobs

(* Stable counting-sort partition: one pass to count per-shard sizes, a
   prefix sum for offsets, one pass to scatter.  Stability matters — it
   preserves per-prefix event order inside each shard, which is what the
   jobs-invariance contract rests on. *)
let partition_into ~jobs ~shard ~shard_idx ~counts ~offsets ~cursors ~out items =
  let n = Array.length items in
  Array.fill counts 0 jobs 0;
  for i = 0 to n - 1 do
    let s = shard items.(i) in
    shard_idx.(i) <- s;
    counts.(s) <- counts.(s) + 1
  done;
  let off = ref 0 in
  for s = 0 to jobs - 1 do
    offsets.(s) <- !off;
    cursors.(s) <- !off;
    off := !off + counts.(s)
  done;
  for i = 0 to n - 1 do
    let s = shard_idx.(i) in
    out.(cursors.(s)) <- items.(i);
    cursors.(s) <- cursors.(s) + 1
  done

(* Fresh-buffer wrapper for cold paths (snapshot repartitioning);
   returns per-shard [counts], [offsets] and the scattered array. *)
let partition ~jobs ~shard items =
  let n = Array.length items in
  let counts = Array.make jobs 0 and offsets = Array.make jobs 0 in
  if n = 0 then (counts, offsets, [||])
  else begin
    let out = Array.make n items.(0) in
    let shard_idx = Array.make n 0 in
    let cursors = Array.make jobs 0 in
    partition_into ~jobs ~shard ~shard_idx ~counts ~offsets ~cursors ~out items;
    (counts, offsets, out)
  end

let slice_list arr off len = List.init len (fun i -> arr.(off + i))

let make ?(metrics = Registry.noop) ?jobs ~init_shard () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Exec.Pool.default_jobs ()
  in
  let live = not (Registry.is_noop metrics) in
  let shard_metrics =
    Array.init jobs (fun _ -> if live then Registry.create () else Registry.noop)
  in
  let shards = Array.init jobs (fun s -> init_shard ~metrics:shard_metrics.(s) s) in
  {
    jobs;
    shards;
    shard_metrics;
    driver = metrics;
    p_counts = Array.make jobs 0;
    p_offsets = Array.make jobs 0;
    p_cursors = Array.make jobs 0;
    p_shard_idx = [||];
    p_scratch = [||];
    m_batches = Registry.counter metrics "stream_batches_total";
    m_days = Registry.counter metrics "stream_days_total";
    h_batch = Registry.histogram metrics "stream_batch_seconds";
    g_open = Registry.gauge metrics "stream_open_episodes";
  }

let create ?metrics ?jobs config =
  make ?metrics ?jobs ()
    ~init_shard:(fun ~metrics _ -> Monitor.create ~metrics config)

let jobs t = t.jobs

let open_count t =
  Array.fold_left (fun acc m -> acc + Monitor.open_count m) 0 t.shards

let update_count t =
  Array.fold_left (fun acc m -> acc + Monitor.update_count m) 0 t.shards

(* every shard receives every day mark, so any shard holds the full count *)
let day_count t = Monitor.day_count t.shards.(0)

let parallel_threshold = 2048

let ingest_batch ?(day_end = false) t ~time events =
  let t0 = Unix.gettimeofday () in
  (* stable partition by prefix hash into the persistent scratch buffers:
     per-prefix event order is preserved inside each shard, and distinct
     prefixes never share state, so any shard count yields the same
     per-prefix trajectories *)
  let n = Array.length events in
  if t.jobs = 1 then begin
    (* single shard: the partition is the identity, so feed the monitor
       straight from the caller's array — no scatter, no scratch *)
    let m = t.shards.(0) in
    for i = 0 to n - 1 do
      Monitor.ingest m events.(i)
    done;
    if day_end then Monitor.mark_day m ~time else Monitor.settle m ~time
  end
  else begin
    if n > Array.length t.p_shard_idx then begin
      let cap = max n (2 * Array.length t.p_shard_idx) in
      t.p_shard_idx <- Array.make cap 0;
      t.p_scratch <- Array.make cap events.(0)
    end;
    partition_into ~jobs:t.jobs
      ~shard:(fun (ev : Monitor.event) -> shard_of t ev.Monitor.prefix)
      ~shard_idx:t.p_shard_idx ~counts:t.p_counts ~offsets:t.p_offsets
      ~cursors:t.p_cursors ~out:t.p_scratch events;
    (* every shard settles on the batch's global clock, so a Flagged
       alert carries the same time whichever shard owns the prefix *)
    let clock = ref min_int in
    for i = 0 to n - 1 do
      if events.(i).Monitor.time > !clock then clock := events.(i).Monitor.time
    done;
    let run_shard s =
      let m = t.shards.(s) in
      let stop = t.p_offsets.(s) + t.p_counts.(s) in
      for i = t.p_offsets.(s) to stop - 1 do
        Monitor.ingest m t.p_scratch.(i)
      done;
      Monitor.advance_clock m ~time:!clock;
      if day_end then Monitor.mark_day m ~time else Monitor.settle m ~time
    in
    (* shards share no state, so dispatching them serially or on the pool
       yields identical per-shard trajectories; small batches stay inline
       because a domain spawn costs more than they do *)
    if Array.length events < parallel_threshold then
      for s = 0 to t.jobs - 1 do
        run_shard s
      done
    else ignore (Exec.Pool.map ~jobs:t.jobs run_shard (Array.init t.jobs Fun.id))
  end;
  Registry.Counter.incr t.m_batches;
  if day_end then Registry.Counter.incr t.m_days;
  if not (Registry.is_noop t.driver) then begin
    Registry.Histogram.observe t.h_batch (Unix.gettimeofday () -. t0);
    Registry.Gauge.set t.g_open (float_of_int (open_count t))
  end

(* The single ingestion entry point over the uniform Source.t pull
   interface: archive replay, MRT blobs, wire feeds and the serving
   daemon's live tail all drain through here. *)
let ingest_source ?(since = min_int) ?max_batches ?on_batch t source =
  let ingested = ref 0 in
  let budget_left () =
    match max_batches with Some n -> !ingested < n | None -> true
  in
  let rec loop () =
    if budget_left () then
      match Source.next source with
      | None -> ()
      | Some b ->
        if b.Source.time > since then begin
          ingest_batch
            ~day_end:(b.Source.day <> None)
            t ~time:b.Source.time b.Source.events;
          incr ingested;
          (match on_batch with Some f -> f t b | None -> ())
        end;
        loop ()
  in
  (* on any failure — the source's pull, the ingest itself, or the
     caller's on_batch — the source is closed before the exception
     escapes, so an abandoned tail never leaks a half-drained source.
     Normal returns (exhaustion or the max_batches budget) leave it open:
     remaining batches stay pulled-able by a later call. *)
  (try loop ()
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     Source.close source;
     Printexc.raise_with_backtrace exn bt);
  !ingested

let batch_alerts t =
  List.sort Monitor.compare_alert
    (List.concat_map Monitor.batch_alerts (Array.to_list t.shards))

let snapshot t =
  Monitor.merge_snapshots
    (Array.to_list (Array.map Monitor.snapshot t.shards))

let of_snapshot ?metrics ?jobs (snap : Monitor.snapshot) =
  let t =
    make ?metrics ?jobs ()
      ~init_shard:(fun ~metrics:_ _ ->
        (* placeholder; each shard is rebuilt from its sub-snapshot below *)
        Monitor.create snap.Monitor.s_config)
  in
  let open Monitor in
  (* the same stable counting-sort partition as the batch path, with
     fresh buffers (cold path): each shard's slice keeps snapshot order *)
  let pc, po, prefixes =
    partition ~jobs:t.jobs
      ~shard:(fun p -> shard_of t p.p_prefix)
      (Array.of_list snap.s_prefixes)
  in
  let cc, co, closed =
    partition ~jobs:t.jobs
      ~shard:(fun e -> shard_of t e.e_prefix)
      (Array.of_list snap.s_closed)
  in
  Array.iteri
    (fun s _ ->
      (* windows and event counters live once, in shard 0; day counts and
         the stream clock are replicated because every shard sees every
         day mark (the merge takes their maximum) *)
      let counters =
        if s = 0 then snap.s_counters
        else { zero_counters with c_days = snap.s_counters.c_days }
      in
      let shard_snap =
        {
          s_config = snap.s_config;
          s_counters = counters;
          s_last_time = snap.s_last_time;
          s_prefixes = slice_list prefixes po.(s) pc.(s);
          s_closed = slice_list closed co.(s) cc.(s);
          s_windows = (if s = 0 then snap.s_windows else []);
        }
      in
      t.shards.(s) <- Monitor.restore ~metrics:t.shard_metrics.(s) shard_snap)
    t.shards;
  t

let metrics t =
  let merged = Registry.create () in
  if not (Registry.is_noop t.driver) then begin
    Registry.merge ~into:merged t.driver;
    Array.iter (fun r -> Registry.merge ~into:merged r) t.shard_metrics
  end;
  merged
