(* archive-pipeline: seed in, decoded store out.  The synthetic archive
   is pulled day by day through Stream.Source, split over four vantages,
   run through the mesh, correlated, stored, encoded and decoded, on one
   domain. *)

module Srv = Measurement.Synthetic_routeviews
module Store = Collect.Store

let jobs = 1

type stages = {
  batches : Stream.Source.batch array;
  step_ms : float array;  (** one sample per [days_per_step] days pulled *)
  day_us : float array;  (** one sample per day pulled *)
  mesh : Collect.Mesh.result;
  correlation : Collect.Correlator.t;
  store : Store.t;
  bytes : bytes;
  decoded : Store.t;
}

let events batches =
  Array.fold_left (fun n b -> n + Array.length b.Stream.Source.events) 0 batches

(* An operation of this workload is one archive day pulled; a step is a
   month of archive, 32 days. *)
let days_per_step = 32

(* Pull the archive through the uniform source interface, timing each
   day and each run of [days_per_step] days. *)
let pull tr params =
  let (batches, step_ms, day_us), dt, words =
    Trace.measure tr "stream.source.pull" @@ fun () ->
    let source = Stream.Source.of_archive ~annotate:Inputs.annotate params in
    let steps = Pass.Samples.create () and days = Pass.Samples.create () in
    let rec loop acc n step_start =
      let t0 = Trace.now_ns () in
      let next = Trace.with_span tr "stream.source.next" (fun () -> Stream.Source.next source) in
      let now = Trace.now_ns () in
      if Option.is_some next then Pass.Samples.push days (1e6 *. Trace.seconds_between t0 now);
      let full = n + 1 = days_per_step in
      if full || (Option.is_none next && n > 0) then
        Pass.Samples.push steps (1e3 *. Trace.seconds_between step_start now);
      let n, step_start = if full then (0, now) else (n + 1, step_start) in
      match next with
      | Some b -> loop (b :: acc) n step_start
      | None -> Array.of_list (List.rev acc)
    in
    let batches = loop [] 0 (Trace.now_ns ()) in
    (batches, Pass.Samples.contents steps, Pass.Samples.contents days)
  in
  let n = events batches in
  Trace.record tr "stream.source.pull_s" dt;
  Trace.record tr "stream.source.pull.minor_words" words;
  Trace.record tr "stream.source.events" (float_of_int n);
  Trace.record tr "stream.source.words_per_event" (words /. float_of_int (max 1 n));
  (batches, step_ms, day_us)

let pipeline tr ~seed ~jobs ~reverse params =
  let batches, step_ms, day_us = pull tr params in
  let streams =
    Trace.stage tr ~metric:"collect.vantage.replay_s" "collect.vantage.replay" (fun () ->
        Collect.Vantage.replay ~coverage:Inputs.coverage ~vantages:Inputs.vantages
          ~seed:(Inputs.vantage_seed ~seed) batches)
  in
  let streams = if reverse then List.rev streams else streams in
  let mesh =
    Trace.stage tr ~metric:"collect.mesh.run_s" "collect.mesh.run" (fun () ->
        Collect.Mesh.run ~jobs Stream.Monitor.default_config streams)
  in
  let correlation =
    Trace.stage tr ~metric:"collect.correlator.correlate_s" "collect.correlator.correlate"
      (fun () -> Collect.Correlator.of_result mesh)
  in
  let store =
    Trace.stage tr ~metric:"collect.store.build_s" "collect.store.build" (fun () ->
        Store.of_correlation correlation)
  in
  let bytes =
    Trace.stage tr ~metric:"collect.store.encode_s" "collect.store.encode" (fun () ->
        Store.encode store)
  in
  let decoded =
    Trace.stage tr ~metric:"collect.store.decode_s" "collect.store.decode" (fun () ->
        Store.decode bytes)
  in
  let per_vantage =
    List.fold_left (fun n (_, evs) -> n + Array.length evs) 0 streams
  in
  Trace.record tr "collect.mesh.merged_events" (float_of_int mesh.Collect.Mesh.r_merged_events);
  Trace.record tr "collect.mesh.dup_ratio"
    (float_of_int mesh.Collect.Mesh.r_duplicates /. float_of_int (max 1 per_vantage));
  Trace.record tr "collect.correlator.entries"
    (float_of_int (List.length correlation.Collect.Correlator.c_entries));
  Trace.record tr "collect.store.bytes" (float_of_int (Bytes.length bytes));
  { batches; step_ms; day_us; mesh; correlation; store; bytes; decoded }

type digests = { merged : Digest.t; correlated : Digest.t; stored : Digest.t }

let digests s =
  {
    merged = Digest.string (Stream.Report.render s.mesh.Collect.Mesh.r_merged);
    correlated = Digest.string (Collect.Correlator.render s.correlation);
    stored = Digest.string (Bytes.unsafe_to_string s.bytes);
  }

type fixture = {
  seed : int;
  params : Srv.params;
  reference : digests;
  n_events : int;
  n_entries : int;
}

(* Set-up runs the pipeline once on two domains with the vantages listed
   in reverse: the reports the measured passes must reproduce at one
   domain and in forward order. *)
let setup _tr ~seed =
  let params = Inputs.archive_params ~seed in
  let s = pipeline Trace.off ~seed ~jobs:2 ~reverse:true params in
  {
    seed;
    params;
    reference = digests s;
    n_events = events s.batches;
    n_entries = Store.count s.store;
  }

let pass tr fx =
  let s, work_s =
    Pass.time (fun () -> pipeline tr ~seed:fx.seed ~jobs:1 ~reverse:false fx.params)
  in
  let checks = Pass.Checks.create () in
  Trace.with_span tr "perfbench.check" (fun () ->
      let d = digests s in
      Pass.Checks.check checks "merged report digest"
        (Digest.equal d.merged fx.reference.merged);
      Pass.Checks.check checks "correlator report digest"
        (Digest.equal d.correlated fx.reference.correlated);
      Pass.Checks.check checks "store bytes digest"
        (Digest.equal d.stored fx.reference.stored);
      Pass.Checks.check checks "fault-day alerts"
        (Oracle.fault_day_alerts fx.params s.mesh.Collect.Mesh.r_merged);
      Pass.Checks.check checks "decoded roster and size"
        (Store.vantages s.decoded = Store.vantages s.store
        && Store.count s.decoded = Store.count s.store);
      Pass.Checks.check checks "decode . encode gives back the entries"
        (Oracle.entries_equal (Store.entries s.decoded) (Store.entries s.store)));
  {
    Pass.work_s;
    steps_ms = s.step_ms;
    ops_us = s.day_us;
    attempted = checks.attempted;
    failed = checks.failed;
  }

let stamp fx =
  [
    ("archive_seed", Printf.sprintf "0x%Lx" fx.params.Srv.seed);
    ("events", string_of_int fx.n_events);
    ("entries", string_of_int fx.n_entries);
    ("vantages", string_of_int Inputs.vantages);
    ("coverage", string_of_float Inputs.coverage);
  ]
