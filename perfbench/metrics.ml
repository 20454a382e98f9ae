(* The metric catalogue: every end-to-end metric each workload reports
   with tracing off, and every per-layer metric the traced run reports,
   with the end-to-end metric and workload it should move.
   BENCHMARK.json lists the same names, units and directions. *)

type better = Lower | Higher

type t = { name : string; unit : string; better : better; moves : string }

let m ?(better = Lower) name unit moves = { name; unit; better; moves }

let end_to_end =
  [
    m "setup_s" "s" "median of three set-ups in one run";
    m "peak_heap_mb" "MB" "largest major heap of the run";
    m "pass_s" "s"
      "median pass: seed to decoded store (archive-pipeline), 1,279 live steps with \
       their calls (serve-live), one attackers x deployment sweep (bgp-sim)";
    m "step_p50_ms" "ms"
      "median step: 32 archive days pulled (archive-pipeline), tail+poll alert step \
       (serve-live), one sweep point's Exec.Pool.map (bgp-sim)";
    m "op_p50_us" "us"
      "median operation: one archive day pulled (archive-pipeline), Client.call \
       (serve-live), one scenario run (bgp-sim)";
  ]

let archive_setup = "pass_s on archive-pipeline; setup_s on serve-live"

let per_kind k =
  let moves =
    match k with
    | "visibility" -> "pass_s on serve-live, and its query tail"
    | "origin" | "count" -> "op_p50_us on serve-live"
    | _ -> "op_p50_us on serve-live (exact and covered sit below the median)"
  in
  [
    m ("serve.proto." ^ k ^ ".codec_us") "us" moves;
    m ("serve.server." ^ k ^ ".handle_us") "us" moves;
    m ("serve.server." ^ k ^ ".handle.minor_words") "words" moves;
    m ("collect.store." ^ k ^ ".query_us") "us" moves;
    m ("serve.proto." ^ k ^ ".reply_bytes") "B" moves;
  ]

let sweep = "pass_s and op_p50_us on bgp-sim"

let per_layer =
  [
    m "stream.source.pull_s" "s"
      (archive_setup ^ "; step_p50_ms and op_p50_us on archive-pipeline");
    m "stream.source.pull.minor_words" "words" archive_setup;
    m "stream.source.events" "count" archive_setup;
    m "stream.source.words_per_event" "words" archive_setup;
    m "collect.vantage.replay_s" "s" archive_setup;
    m "collect.vantage.replay.minor_words" "words" archive_setup;
    m "collect.mesh.run_s" "s" archive_setup;
    m "collect.mesh.run.minor_words" "words" archive_setup;
    m "collect.mesh.merged_events" "count" archive_setup;
    m "collect.mesh.dup_ratio" "ratio" archive_setup;
    m "collect.correlator.correlate_s" "s" archive_setup;
    m "collect.correlator.correlate.minor_words" "words" archive_setup;
    m "collect.correlator.entries" "count" archive_setup;
    m "collect.store.build_s" "s" archive_setup;
    m "collect.store.build.minor_words" "words" archive_setup;
    m "collect.store.encode_s" "s" archive_setup;
    m "collect.store.encode.minor_words" "words" archive_setup;
    m "collect.store.decode_s" "s" archive_setup;
    m "collect.store.decode.minor_words" "words" archive_setup;
    m "collect.store.bytes" "B" archive_setup;
  ]
  @ List.concat_map (fun k -> per_kind (Inputs.kind_name k)) (Array.to_list Inputs.kinds)
  @ [
      m "serve.client.call_us" "us" "op_p50_us on serve-live";
      m "serve.client.poll_us" "us" "step_p50_ms on serve-live";
      m "serve.server.tail_ms" "ms" "step_p50_ms on serve-live";
      m "serve.server.tail.minor_words" "words" "step_p50_ms on serve-live; peak_heap_mb";
      m "stream.sharded.ingest_ms" "ms" "step_p50_ms on serve-live";
      m "stream.sharded.ingest.minor_words" "words" "step_p50_ms on serve-live";
      m "stream.sharded.snapshot_ms" "ms" "step_p50_ms on serve-live";
      m "stream.sharded.snapshot.minor_words" "words" "step_p50_ms on serve-live";
      m "serve.server.diff_ms" "ms" "step_p50_ms on serve-live";
      m "serve.server.alerts" "count" "step_p50_ms on serve-live";
      m "topology.generate_s" "s" "setup_s on bgp-sim";
      m "topology.generate.minor_words" "words" "setup_s on bgp-sim";
      m "attack.scenario.run_ms" "ms" sweep;
      m "attack.scenario.run.minor_words" "words" (sweep ^ "; peak_heap_mb");
      m "sim.engine.events" "count" sweep;
      m ~better:Higher "sim.engine.events_per_s" "1/s" sweep;
      m "sim.engine.queue_hwm" "count" sweep;
      m "bgp.router.updates_sent" "count" sweep;
      m "bgp.router.decisions" "count" sweep;
      m "moas.detector.verify_calls" "count" sweep;
      m "moas.detector.alarms" "count" sweep;
      m "exec.pool.map_ms" "ms" "step_p50_ms and pass_s on bgp-sim; unmoved on the jobs=1 workloads";
      m ~better:Higher "exec.pool.busy_share" "ratio"
        "pass_s on bgp-sim; unmoved on the jobs=1 workloads";
      m "trace.overhead_share" "ratio" "traced minus untraced pass_s, over untraced pass_s";
      m ~better:Higher "trace.attributed_share" "ratio"
        "top-level layer span time over traced pass_s, every workload";
    ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
