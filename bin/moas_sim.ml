(* moas_sim: command-line driver that regenerates every figure and table of
   the paper, plus the ablations, from the reproduction libraries. *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* A corrupt store or checkpoint ends the run with one line on stderr
   and exit status 1. *)
let corrupt_input path what msg =
  Printf.eprintf "moas_sim: %s: corrupt %s: %s\n%!" path what msg;
  exit 1

let read_store_file path =
  try Collect.Store.read_file path with Collect.Store.Corrupt msg -> corrupt_input path "store" msg

let read_checkpoint path =
  try Stream.Checkpoint.read_file path
  with Stream.Checkpoint.Corrupt msg -> corrupt_input path "checkpoint" msg

let write_csv_opt out_dir figure =
  match out_dir with
  | None -> ()
  | Some dir ->
    let header, rows = Experiments.Figures.to_csv figure in
    let id = figure.Experiments.Figures.id in
    let name =
      String.concat ""
        (List.filter_map
           (fun c ->
             match c with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Some (String.make 1 c)
             | _ -> None)
           (List.init (String.length id) (String.get id)))
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (String.lowercase_ascii name ^ ".csv") in
    Mutil.Csv.write_file ~path ~header rows;
    say "  wrote %s" path

let print_figures out_dir figures =
  List.iter
    (fun figure ->
      print_string (Experiments.Figures.render figure);
      write_csv_opt out_dir figure;
      print_newline ())
    figures

let section3 () =
  Stream.Report.section3
    (Stream.Source.of_archive Measurement.Synthetic_routeviews.default_params)

let run_fig4 () =
  let s = section3 () in
  print_string (Stream.Report.figure4_text s);
  say "automatically flagged fault events:";
  print_string
    (Measurement.Anomaly.render
       (Measurement.Anomaly.detect s.Stream.Report.daily_counts))

let run_fig5 () =
  let s = section3 () in
  print_string (Stream.Report.figure5_text s);
  print_string (Stream.Report.summary_table s)

let run_exp1 seed jobs out_dir =
  print_figures out_dir (Experiments.Figures.figure9 ?seed ?jobs ())

let run_exp2 seed jobs out_dir =
  print_figures out_dir (Experiments.Figures.figure10 ?seed ?jobs ())

let run_exp3 seed jobs out_dir =
  print_figures out_dir (Experiments.Figures.figure11 ?seed ?jobs ())

let run_summary seed jobs =
  print_string (Experiments.Figures.summary_table ?seed ?jobs ());
  say "";
  say "Qualitative claims under reproduction:";
  List.iter (fun c -> say "  - %s" c) Experiments.Paper.claims

let run_ablations jobs = print_string (Experiments.Ablation.render_all ?jobs ())

let run_compare () =
  print_string
    (Baselines.Comparison.render
       (Baselines.Comparison.head_to_head
          ~topology:(Topology.Paper_topologies.topology_46 ())
          ()))

let run_studies () =
  let t = Topology.Paper_topologies.topology_46 () in
  say "== DNS-based verification (Section 2 circular dependency) ==";
  print_string (Experiments.Dns_study.render (Experiments.Dns_study.study ~topology:t ()));
  say "";
  say "== Off-line monitor vantage study (Section 4.2) ==";
  print_string (Experiments.Vantage_study.render (Experiments.Vantage_study.study ~topology:t ()));
  say "";
  say "== Detection and convergence dynamics ==";
  print_string (Experiments.Convergence.render (Experiments.Convergence.study ~topology:t ()))

let run_simulate size n_origins n_attackers deployment policy seed runs =
  let seed = Option.value seed ~default:1L in
  let topology =
    match size with
    | 25 -> Topology.Paper_topologies.topology_25 ()
    | 46 -> Topology.Paper_topologies.topology_46 ()
    | 63 -> Topology.Paper_topologies.topology_63 ()
    | n -> Topology.Paper_topologies.build ~seed:0x4d4f4153L ~target_size:n ()
  in
  let deployment =
    match String.lowercase_ascii deployment with
    | "none" | "off" -> Moas.Deployment.Disabled
    | "full" -> Moas.Deployment.Full
    | "half" -> Moas.Deployment.Fraction 0.5
    | s ->
      (match float_of_string_opt s with
      | Some f when f >= 0.0 && f <= 1.0 -> Moas.Deployment.Fraction f
      | _ -> failwith ("unknown deployment: " ^ s))
  in
  let policy_mode =
    match String.lowercase_ascii policy with
    | "shortest" | "shortest-path" -> Attack.Scenario.Shortest_path
    | "gao-rexford" | "gr" -> Attack.Scenario.Gao_rexford_inferred
    | s -> failwith ("unknown policy: " ^ s)
  in
  say "%s" (Topology.Paper_topologies.describe topology);
  say "deployment: %s; policy: %s; %d origin(s), %d attacker(s), %d run(s)"
    (Moas.Deployment.to_string deployment)
    policy n_origins n_attackers runs;
  let rows =
    List.init runs (fun run ->
        let rng = Mutil.Rng.create ~seed:(Int64.add seed (Int64.of_int run)) in
        let base =
          Attack.Scenario.random rng
            ~graph:topology.Topology.Paper_topologies.graph
            ~stub:topology.Topology.Paper_topologies.stub ~n_origins
            ~n_attackers ~deployment
        in
        let scenario = { base with Attack.Scenario.policy_mode } in
        let o = Attack.Scenario.run rng scenario in
        [
          string_of_int run;
          Mutil.Text_table.percent_cell ~decimals:2
            o.Attack.Scenario.fraction_adopting;
          string_of_int o.Attack.Scenario.alarm_count;
          (match o.Attack.Scenario.detection_latency with
          | Some l -> Printf.sprintf "%.2f" l
          | None -> "-");
          string_of_int o.Attack.Scenario.oracle_queries;
          string_of_int o.Attack.Scenario.updates_sent;
          string_of_bool o.Attack.Scenario.converged;
        ])
  in
  Mutil.Text_table.print
    ~header:
      [ "run"; "adoption"; "alarms"; "latency"; "oracle"; "updates"; "ok" ]
    rows

let run_robustness seed smoke jobs =
  print_string (Experiments.Robustness.report ?seed ~smoke ?jobs ())

(* the 1/10-size archive under --smoke, else the full one *)
let archive_params smoke =
  if smoke then Measurement.Synthetic_routeviews.smoke_params
  else Measurement.Synthetic_routeviews.default_params

(* --metrics FILE: a live registry only when a dump is asked for *)
let registry_for metrics_out =
  if metrics_out = None then Obs.Registry.noop else Obs.Registry.create ()

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_metrics metrics_out ~extra metrics =
  Option.iter
    (fun path ->
      write_file path (Obs.Registry.to_json_lines ~extra metrics);
      say "metrics dump written to %s" path)
    metrics_out

(* --report FILE: the report also goes to FILE (it always prints) *)
let print_report report_out report =
  print_string report;
  Option.iter
    (fun path ->
      write_file path report;
      say "report written to %s" path)
    report_out

exception Monitor_stop

let run_monitor smoke jobs window annotate seed checkpoint checkpoint_every
    stop_after resume metrics_out =
  let params =
    let base = archive_params smoke in
    match seed with
    | None -> base
    | Some seed -> { base with Measurement.Synthetic_routeviews.seed }
  in
  let annotate =
    match String.lowercase_ascii annotate with
    | "none" -> Stream.Source.no_annotation
    | "trusted" -> Stream.Source.fault_annotator
    | s -> failwith ("unknown annotation policy: " ^ s)
  in
  let config = { Stream.Monitor.default_config with Stream.Monitor.window } in
  let metrics = registry_for metrics_out in
  if checkpoint_every <> None && checkpoint = None then
    failwith "--checkpoint-every needs --checkpoint FILE";
  let monitor, resume_time =
    match resume with
    | Some path ->
      let snap = read_checkpoint path in
      (Stream.Sharded.of_snapshot ~metrics ?jobs snap, snap.Stream.Monitor.s_last_time)
    | None -> (Stream.Sharded.create ~metrics ?jobs config, min_int)
  in
  let write_checkpoint () =
    match checkpoint with
    | Some path -> Stream.Checkpoint.write_file path (Stream.Sharded.snapshot monitor)
    | None -> ()
  in
  let source = Stream.Source.of_archive ~annotate params in
  (try
     ignore
       (Stream.Sharded.ingest_source ~since:resume_time monitor source
          ~on_batch:(fun monitor _batch ->
            (* positivity is enforced by the pos_int converter at parse time *)
            (match checkpoint_every with
            | Some n when Stream.Sharded.day_count monitor mod n = 0 ->
              write_checkpoint ()
            | _ -> ());
            match stop_after with
            | Some n when Stream.Sharded.day_count monitor >= n ->
              raise Monitor_stop
            | _ -> ()))
   with Monitor_stop -> ());
  Stream.Source.close source;
  write_checkpoint ();
  print_string (Stream.Report.render (Stream.Sharded.snapshot monitor));
  write_metrics metrics_out
    ~extra:
      [
        ("workload", "monitor");
        ("jobs", string_of_int (Stream.Sharded.jobs monitor));
      ]
    (Stream.Sharded.metrics monitor)

(* ------------------------------------------------------------------ *)
(* collect: the multi-vantage collector mesh *)

let collect_config = { Stream.Monitor.default_config with Stream.Monitor.window = 10_000 }

let run_collect_query store_path query_str =
  let store =
    match store_path with
    | Some path when Sys.file_exists path -> read_store_file path
    | Some path -> failwith (Printf.sprintf "no episode store at %s" path)
    | None -> failwith "--query needs --store FILE"
  in
  let q =
    match Collect.Query.parse query_str with
    | Ok q -> q
    | Error msg -> failwith ("bad query: " ^ msg)
  in
  let hits = Collect.Store.query store q in
  say "query %S: %d of %d entries match" query_str (List.length hits)
    (Collect.Store.count store);
  print_string
    (Collect.Store.render
       (Collect.Store.of_entries ~vantages:(Collect.Store.vantages store) hits))

let run_collect vantages jobs smoke seed store_path query metrics_out order =
  match query with
  | Some q -> run_collect_query store_path q
  | None ->
    let topology =
      if smoke then Topology.Paper_topologies.topology_25 ()
      else Topology.Paper_topologies.topology_46 ()
    in
    let seed = Option.value seed ~default:0xC011EC7L in
    let metrics = registry_for metrics_out in
    let arrange streams =
      match order with "reversed" -> List.rev streams | _ -> streams
    in
    let mesh streams =
      Collect.Mesh.run ~metrics ?jobs collect_config (arrange streams)
    in
    say "%s" (Topology.Paper_topologies.describe topology);
    (* arm 1: the healthy mesh *)
    let baseline =
      Collect.Scenario.capture ~metrics ~seed ~vantages topology
    in
    print_string (Collect.Scenario.describe baseline);
    let base_mesh = mesh baseline.Collect.Scenario.s_streams in
    say "merged view: %d events (%d duplicate observations collapsed)"
      base_mesh.Collect.Mesh.r_merged_events
      base_mesh.Collect.Mesh.r_duplicates;
    let base_corr = Collect.Correlator.of_result base_mesh in
    print_string (Collect.Correlator.render base_corr);
    (* arm 2: the same workload with the first vantage partitioned *)
    say "";
    say "-- partition arm: isolating the first vantage with lib/faults --";
    let partitioned =
      Collect.Scenario.capture ~metrics ~arm:Collect.Scenario.Partitioned ~seed
        ~vantages topology
    in
    print_string (Collect.Scenario.describe partitioned);
    let part_mesh = mesh partitioned.Collect.Scenario.s_streams in
    let part_corr = Collect.Correlator.of_result part_mesh in
    print_string (Collect.Correlator.render part_corr);
    (match partitioned.Collect.Scenario.s_isolated with
    | None -> ()
    | Some name ->
      let view result =
        Stream.Checkpoint.encode
          (List.assoc name result.Collect.Mesh.r_per_vantage)
      in
      say "isolated vantage %s diverged from its healthy-run view: %b" name
        (view base_mesh <> view part_mesh);
      let flagged =
        List.exists
          (fun (e : Collect.Correlator.entry) ->
            Net.Prefix.compare e.Collect.Correlator.x_prefix
              partitioned.Collect.Scenario.s_attacked
            = 0
            && not e.Collect.Correlator.x_clean)
          part_corr.Collect.Correlator.c_entries
      in
      say "merged correlator still flags the invalid-origin conflict: %b"
        flagged);
    (match store_path with
    | None -> ()
    | Some path ->
      Collect.Store.write_file path (Collect.Store.of_correlation base_corr);
      say "episode store written to %s" path);
    write_metrics metrics_out
      ~extra:[ ("workload", "collect"); ("vantages", string_of_int vantages) ]
      metrics

(* ------------------------------------------------------------------ *)
(* classify: learned per-episode verdicts over the scenario corpus *)

let run_classify smoke jobs seed features_out report_out metrics_out =
  let seed = Option.value seed ~default:0xC1A55L in
  let metrics = registry_for metrics_out in
  let ev = Classify.Eval.evaluate ~metrics ?jobs ~smoke ~seed () in
  print_report report_out (Classify.Eval.render ev.Classify.Eval.ev_report);
  Option.iter
    (fun path ->
      write_file path (Classify.Eval.features_csv ev.Classify.Eval.ev_corpus);
      say "feature matrix written to %s" path)
    features_out;
  write_metrics metrics_out ~extra:[ ("workload", "classify") ] metrics

(* ------------------------------------------------------------------ *)
(* community: the community-telemetry detector head-to-head *)

let run_community smoke jobs seed report_out metrics_out =
  let seed = Option.value seed ~default:Experiments.Community.default_seed in
  let metrics = registry_for metrics_out in
  print_report report_out
    (Experiments.Community.report ~metrics ?jobs ~smoke ~seed ());
  write_metrics metrics_out ~extra:[ ("workload", "community") ] metrics

(* ------------------------------------------------------------------ *)
(* serve: the query/alert daemon over the MOASSERV wire protocol *)

let read_store = function
  | Some path when Sys.file_exists path -> read_store_file path
  | Some path -> failwith (Printf.sprintf "no episode store at %s" path)
  | None -> failwith "--store FILE is required"

let parse_query_or_die s =
  match Collect.Query.parse s with
  | Ok q -> q
  | Error msg -> failwith ("bad query: " ^ msg)

(* One scripted serve session: commands in, rendered responses out.  The
   transcript is deterministic — CI replays the same script twice and
   diffs the bytes. *)
let serve_command server client source ~checkpoint_every ~write_checkpoint line
    =
  let cmd, rest =
    match String.index_opt line ' ' with
    | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> (line, "")
  in
  let call req = say "%s" (Serve.Proto.render_response (Serve.Client.call client req)) in
  match cmd with
  | "ping" -> call Serve.Proto.Ping
  | "stats" -> call Serve.Proto.Stats
  | "query" -> call (Serve.Proto.Query (parse_query_or_die rest))
  | "count" -> call (Serve.Proto.Count (parse_query_or_die rest))
  | "subscribe" -> call (Serve.Proto.Subscribe (parse_query_or_die rest))
  | "unsubscribe" ->
    (match int_of_string_opt rest with
    | Some id -> call (Serve.Proto.Unsubscribe id)
    | None -> failwith ("unsubscribe needs an integer id, got: " ^ rest))
  | "tail" ->
    let max_batches =
      if rest = "" then None
      else
        match int_of_string_opt rest with
        | Some n when n > 0 -> Some n
        | _ -> failwith ("tail needs a positive batch count, got: " ^ rest)
    in
    let batches = ref 0 in
    let on_batch _server =
      incr batches;
      match checkpoint_every with
      | Some n when !batches mod n = 0 -> write_checkpoint ()
      | _ -> ()
    in
    say "tailed %d batches" (Serve.Server.tail ?max_batches ~on_batch server source);
    (match Serve.Server.health server with
    | Serve.Server.Serving -> ()
    | Serve.Server.Degraded reason -> say "tail degraded: %s" reason)
  | "poll" ->
    (match Serve.Client.poll client with
    | [] -> say "(no alerts)"
    | alerts ->
      List.iter (fun r -> say "%s" (Serve.Proto.render_response r)) alerts)
  | "crash" ->
    (* simulate a SIGKILL mid-session: no cleanup, no checkpoint-at-exit —
       recovery must come from the last periodic checkpoint *)
    say "crashing (exit 137, no cleanup)";
    Unix._exit 137
  | _ -> failwith ("unknown serve command: " ^ cmd)

let run_serve store_path script smoke jobs seed checkpoint checkpoint_every
    resume metrics_out =
  let store = read_store store_path in
  if checkpoint_every <> None && checkpoint = None then
    failwith "--checkpoint-every needs --checkpoint FILE";
  let params =
    let base = archive_params smoke in
    match seed with
    | None -> base
    | Some seed -> { base with Measurement.Synthetic_routeviews.seed }
  in
  let metrics = registry_for metrics_out in
  let live_snapshot =
    match resume with
    | None -> None
    | Some path ->
      let snap = read_checkpoint path in
      say "resumed live tail from %s (stream clock %d)" path
        snap.Stream.Monitor.s_last_time;
      Some snap
  in
  let server =
    Serve.Server.create ~metrics ?live_jobs:jobs ?live_snapshot ~store ()
  in
  let write_checkpoint () =
    match checkpoint with
    | Some path ->
      Stream.Checkpoint.write_file path (Serve.Server.live_snapshot server)
    | None -> ()
  in
  let source =
    Stream.Source.of_archive ~annotate:Stream.Source.fault_annotator params
  in
  let client = Serve.Client.connect server in
  let lines =
    match script with
    | Some path ->
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> close_in ic; List.rev acc
      in
      read []
    | None ->
      let rec read acc =
        match input_line stdin with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      read []
  in
  say "serving %d episodes over %d vantages"
    (Collect.Store.count store)
    (List.length (Collect.Store.vantages store));
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        say "> %s" line;
        serve_command server client source ~checkpoint_every ~write_checkpoint
          line
      end)
    lines;
  Serve.Client.close client;
  Stream.Source.close source;
  write_checkpoint ();
  write_metrics metrics_out ~extra:[ ("workload", "serve") ] metrics

let run_query_client store_path query_str count_only attempts timeout seed =
  let store = read_store store_path in
  let q = parse_query_or_die query_str in
  (* the full wire path: encode the request, decode the response — with
     the same retrying client a remote deployment would use (per-call
     timeout, capped seed-deterministic backoff) *)
  let server = Serve.Server.create ~store () in
  let client =
    Serve.Client.connect
      ~retry:{ Serve.Client.default_retry with attempts }
      ?timeout
      ~rng:(Mutil.Rng.create ~seed)
      server
  in
  let req = if count_only then Serve.Proto.Count q else Serve.Proto.Query q in
  (match Serve.Client.call client req with
  | resp -> say "%s" (Serve.Proto.render_response resp)
  | exception Serve.Client.Failed (Serve.Client.Timed_out s) ->
    say "failed: timed out after %.3fs" s
  | exception Serve.Client.Failed (Serve.Client.Unreachable msg) ->
    say "failed: unreachable (%s)" msg);
  if Serve.Client.retries client > 0 then
    say "(%d retries)" (Serve.Client.retries client);
  Serve.Client.close client

(* ------------------------------------------------------------------ *)
(* chaos: seeded fault-plan sweep over the serving path.  The invariant:
   under any plan, every request either answers correctly, is refused
   in-band with Rejected, or fails cleanly at the client — never a hang,
   a crash, or a wrong answer.  The whole transcript is a pure function
   of the seed (virtual clock, no wall time), so CI diffs two runs. *)

let build_chaos_inputs ~smoke =
  let batches =
    Stream.Source.archive_batches ~annotate:Stream.Source.fault_annotator
      (archive_params smoke)
  in
  let streams =
    Collect.Vantage.replay ~coverage:0.65 ~vantages:3 ~seed:0xC011EC7L batches
  in
  let store =
    Collect.Store.of_correlation
      (Collect.Correlator.of_result
         (Collect.Mesh.run Stream.Monitor.default_config streams))
  in
  (store, batches)

(* deterministic request mix cycling over the stored episodes *)
let chaos_request entries n i =
  let e = entries.(i mod n) in
  let open Collect.Query in
  match i mod 5 with
  | 0 -> Serve.Proto.Query (empty |> prefix e.Collect.Correlator.x_prefix)
  | 1 ->
    Serve.Proto.Query (empty |> prefix e.Collect.Correlator.x_prefix |> covered)
  | 2 ->
    Serve.Proto.Count
      (match Net.Asn.Set.min_elt_opt e.Collect.Correlator.x_origins with
      | Some a -> empty |> origin a
      | None -> empty)
  | 3 -> Serve.Proto.Query (empty |> min_visibility (1 + (i mod 3)))
  | _ -> if i mod 10 = 4 then Serve.Proto.Ping else Serve.Proto.Count empty

let run_chaos smoke requests plan_name chaos_seed metrics_out =
  let store, batches = build_chaos_inputs ~smoke in
  let entries = Array.of_list (Collect.Store.entries store) in
  let n_entries = Array.length entries in
  if n_entries = 0 then failwith "chaos: empty store";
  say "chaos sweep: %d episodes, %d requests per plan, seed %Ld" n_entries
    requests chaos_seed;
  let root = Mutil.Rng.create ~seed:chaos_seed in
  let pristine = Serve.Server.create ~store () in
  let oracle = Serve.Client.connect pristine in
  let expected req =
    Serve.Proto.render_response (Serve.Client.call oracle req)
  in
  let plans =
    match plan_name with
    | None -> Chaos.presets
    | Some name -> (
      match List.assoc_opt name Chaos.presets with
      | Some p -> [ (name, p) ]
      | None ->
        failwith
          (Printf.sprintf "unknown plan %s (have: %s)" name
             (String.concat ", " (List.map fst Chaos.presets))))
  in
  let registries = ref [] in
  let violations = ref 0 in
  let run_plan pi (name, plan) =
    say "-- plan %s: %s" name (Chaos.plan_to_string plan);
    let arm = Mutil.Rng.split_at root pi in
    let clock = Chaos.Clock.create () in
    let metrics = registry_for metrics_out in
    if not (Obs.Registry.is_noop metrics) then
      registries := metrics :: !registries;
    (* tight limits so the shedding / deadline / eviction paths actually
       fire under the injected delays *)
    let limits =
      {
        Serve.Server.default_limits with
        deadline = 0.25;
        queue_high_water = 4;
        evict_after = 8;
      }
    in
    let server =
      Serve.Server.create ~metrics ~limits ~now:(Chaos.Clock.fn clock) ~store
        ()
    in
    let transport =
      Chaos.transport ~clock ~rng:(Mutil.Rng.split_at arm 0) ~plan server
    in
    let client =
      Serve.Client.connect_via
        ~retry:{ Serve.Client.default_retry with attempts = 4 }
        ~timeout:0.3
        ~rng:(Mutil.Rng.split_at arm 1)
        ~clock:(Chaos.Clock.fn clock)
        ~sleep:(Chaos.Clock.sleep clock)
        transport
    in
    let ok = ref 0 and rejected = ref 0 and failed = ref 0 in
    for i = 0 to requests - 1 do
      let req = chaos_request entries n_entries i in
      let want = expected req in
      match Serve.Client.call client req with
      | resp -> (
        let got = Serve.Proto.render_response resp in
        if got = want then incr ok
        else
          match resp with
          | Serve.Proto.Rejected _ -> incr rejected
          | _ ->
            incr violations;
            say "   WRONG ANSWER on request %d: got %s" i got)
      | exception Serve.Client.Failed _ -> incr failed
    done;
    (* slow-consumer arm: subscribe over a direct (unfaulted) session,
       then tail without polling so the tiny outbox overflows, sheds
       oldest-first and finally evicts the session *)
    let sub = Serve.Client.connect server in
    (match
       Serve.Client.call sub (Serve.Proto.Subscribe Collect.Query.empty)
     with
    | Serve.Proto.Subscribed _ -> ()
    | other -> say "   subscribe: %s" (Serve.Proto.render_response other));
    let tail_src = Stream.Source.of_batches batches in
    let tailed =
      Serve.Server.tail ~max_batches:(if smoke then 12 else 30) server tail_src
    in
    Stream.Source.close tail_src;
    let polled = List.length (Serve.Client.poll sub) in
    say "   requests: ok=%d rejected=%d failed=%d retries=%d" !ok !rejected
      !failed (Serve.Client.retries client);
    say "   tail: %d batches, polled %d alerts" tailed polled;
    say "   server: shed=%d timeouts=%d evicted=%d"
      (Serve.Server.shed_total server)
      (Serve.Server.timeout_total server)
      (Serve.Server.evicted_total server);
    Serve.Client.close sub;
    Serve.Client.close client
  in
  List.iteri run_plan plans;
  (* degraded arm: the tail source dies mid-stream; the server keeps
     answering queries read-only and later tails are no-ops *)
  say "-- degraded arm: source failure after 3 batches";
  let server = Serve.Server.create ~store () in
  let failing = Chaos.failing_source ~after:3 (Array.to_list batches) in
  let n = Serve.Server.tail server failing in
  say "   ingested %d batches before the source died" n;
  (match Serve.Server.health server with
  | Serve.Server.Degraded reason -> say "   health: degraded (%s)" reason
  | Serve.Server.Serving ->
    incr violations;
    say "   VIOLATION: server still Serving after source failure");
  let again = Serve.Server.tail server (Stream.Source.of_batches batches) in
  say "   post-failure tail: %d batches" again;
  let direct = Serve.Client.connect server in
  let req = chaos_request entries n_entries 0 in
  let got = Serve.Proto.render_response (Serve.Client.call direct req) in
  (if got = expected req then say "   degraded queries: ok"
   else begin
     incr violations;
     say "   VIOLATION: degraded query diverged"
   end);
  say "%s"
    (Serve.Proto.render_response (Serve.Client.call direct Serve.Proto.Stats));
  Serve.Client.close direct;
  Serve.Client.close oracle;
  (if metrics_out <> None then
     let merged = Obs.Registry.create () in
     List.iter
       (fun r -> Obs.Registry.merge ~into:merged r)
       (List.rev !registries);
     write_metrics metrics_out ~extra:[ ("workload", "chaos") ] merged);
  if !violations > 0 then
    failwith (Printf.sprintf "chaos: %d invariant violations" !violations);
  say "chaos invariants held: every request answered, rejected, or failed \
       cleanly"

let run_topologies () =
  List.iter
    (fun t -> say "%s" (Topology.Paper_topologies.describe t))
    (Topology.Paper_topologies.all ())

let run_all seed jobs out_dir =
  say "== Topologies (Section 5.1) ==";
  run_topologies ();
  say "";
  say "== Figure 4 ==";
  run_fig4 ();
  say "== Figure 5 and Section 3 statistics ==";
  run_fig5 ();
  say "";
  say "== Experiment 1 (Figure 9) ==";
  run_exp1 seed jobs out_dir;
  say "== Experiment 2 (Figure 10) ==";
  run_exp2 seed jobs out_dir;
  say "== Experiment 3 (Figure 11) ==";
  run_exp3 seed jobs out_dir;
  say "== Headline statistics ==";
  run_summary seed jobs;
  say "";
  say "== Ablations (Sections 4.3-4.4) ==";
  run_ablations jobs;
  say "";
  say "== Related-work comparison (Sections 2 and 6) ==";
  run_compare ();
  say "";
  run_studies ()

open Cmdliner

let seed_arg =
  let doc = "Root seed for the experiment sweeps (decimal integer)." in
  Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"SEED" ~doc)

(* what --smoke shrinks is said in each command's own doc *)
let smoke_arg =
  Arg.(value & flag & info [ "smoke" ]
         ~doc:"Run the small variant described above, for CI.")

let out_dir_arg =
  let doc = "Directory to write per-figure CSV files into." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

(* rejects 0 and negatives at parse time, so e.g. --jobs 0 or --window 0
   is a usage error instead of being silently ignored or crashing later;
   every positive-count option goes through this one converter *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Worker domains for the experiment sweeps (default: $(b,MOAS_JOBS) if \
     set, else the recommended domain count).  Output is byte-identical at \
     any job count."
  in
  Arg.(value & opt (some pos_int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the lib/obs metrics dump (JSON lines) to FILE.")

let report_arg =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the report to FILE (it always prints to stdout).")

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) term

let fig4_cmd = cmd "fig4" ~doc:"Figure 4: daily MOAS conflicts, 11/1997-7/2001."
    Term.(const run_fig4 $ const ())

let fig5_cmd = cmd "fig5" ~doc:"Figure 5: MOAS duration histogram and Section 3 statistics."
    Term.(const run_fig5 $ const ())

let exp1_cmd = cmd "exp1" ~doc:"Experiment 1 (Figure 9): MOAS list effectiveness, 46-AS."
    Term.(const run_exp1 $ seed_arg $ jobs_arg $ out_dir_arg)

let exp2_cmd = cmd "exp2" ~doc:"Experiment 2 (Figure 10): topology-size comparison."
    Term.(const run_exp2 $ seed_arg $ jobs_arg $ out_dir_arg)

let exp3_cmd = cmd "exp3" ~doc:"Experiment 3 (Figure 11): partial deployment."
    Term.(const run_exp3 $ seed_arg $ jobs_arg $ out_dir_arg)

let summary_cmd = cmd "summary" ~doc:"Headline paper-vs-measured statistics."
    Term.(const run_summary $ seed_arg $ jobs_arg)

let ablations_cmd = cmd "ablations" ~doc:"Section 4.3/4.4 ablations."
    Term.(const run_ablations $ jobs_arg)

let compare_cmd = cmd "compare" ~doc:"Head-to-head against S-BGP and IRR filtering baselines."
    Term.(const run_compare $ const ())

let studies_cmd = cmd "studies" ~doc:"Vantage-point and convergence-dynamics studies."
    Term.(const run_studies $ const ())

let simulate_cmd =
  let size =
    Arg.(value & opt int 46 & info [ "topology" ] ~docv:"N" ~doc:"Topology size (25, 46, 63 or a custom node count).")
  in
  let n_origins =
    Arg.(value & opt int 1 & info [ "origins" ] ~docv:"N" ~doc:"Legitimate origin ASes (drawn from stubs).")
  in
  let n_attackers =
    Arg.(value & opt int 2 & info [ "attackers" ] ~docv:"N" ~doc:"Attacker ASes (drawn from all ASes).")
  in
  let deployment =
    Arg.(value & opt string "full" & info [ "deployment" ] ~docv:"D" ~doc:"none, half, full, or a fraction in [0,1].")
  in
  let policy =
    Arg.(value & opt string "shortest" & info [ "policy" ] ~docv:"P" ~doc:"shortest or gao-rexford.")
  in
  let runs =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc:"Independent runs to execute.")
  in
  cmd "simulate"
    ~doc:"Run custom attack scenarios and print per-run outcomes (scenario \
          seed 1 unless $(b,--seed) is given)."
    Term.(const run_simulate $ size $ n_origins $ n_attackers $ deployment $ policy $ seed_arg $ runs)

let robustness_cmd =
  cmd "robustness"
    ~doc:"Detection robustness under injected faults: partition, churn and \
          message-loss sweeps.  $(b,--smoke) runs a small deterministic \
          sweep on the 25-AS topology only."
    Term.(const run_robustness $ seed_arg $ smoke_arg $ jobs_arg)

let monitor_cmd =
  let window =
    Arg.(value & opt pos_int 86_400
         & info [ "window" ] ~docv:"SECONDS"
             ~doc:"Alert aggregation window in seconds (a positive integer; \
                   default one day).")
  in
  let annotate =
    Arg.(value & opt string "trusted"
         & info [ "annotate" ] ~docv:"POLICY"
             ~doc:"MOAS-list annotation policy: $(b,trusted) (cooperating \
                   origins attach lists, fault ASes do not) or $(b,none).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Write a binary checkpoint of the monitor state to FILE \
                   (at exit, and periodically with $(b,--checkpoint-every)).")
  in
  let checkpoint_every =
    Arg.(value & opt (some pos_int) None
         & info [ "checkpoint-every" ] ~docv:"DAYS"
             ~doc:"Also checkpoint every DAYS observed days (a positive \
                   integer; needs $(b,--checkpoint)).")
  in
  let stop_after =
    Arg.(value & opt (some pos_int) None
         & info [ "stop-after" ] ~docv:"DAYS"
             ~doc:"Stop the replay after DAYS observed days (a positive \
                   integer, counting any days already covered by a resumed \
                   checkpoint).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Restore monitor state from a checkpoint FILE and skip \
                   archive batches it already covers.")
  in
  cmd "monitor"
    ~doc:"Online MOAS monitor: replay the synthetic RouteViews archive as a \
          stream with sharded ingest, episode tracking and checkpoint/restore. \
          The report is byte-identical at any $(b,--jobs) count and across \
          checkpoint/restore.  $(b,--smoke) replays a 1/10-size archive with \
          the same phenomenology."
    Term.(const run_monitor $ smoke_arg $ jobs_arg $ window $ annotate $ seed_arg
          $ checkpoint $ checkpoint_every $ stop_after $ resume $ metrics_arg)

let collect_cmd =
  let vantages =
    Arg.(value & opt pos_int 3
         & info [ "vantages" ] ~docv:"N"
             ~doc:"Collector vantage points to attach (positive integer).")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Write the correlated episode store (binary, queryable \
                   with $(b,--query)) to FILE.")
  in
  let query =
    Arg.(value & opt (some string) None
         & info [ "query" ] ~docv:"QUERY"
             ~doc:"Skip the simulation and query an existing $(b,--store) \
                   FILE instead: comma-separated key=value clauses among \
                   $(b,prefix=P), $(b,covered=BOOL), $(b,origin=AS), \
                   $(b,since=T), $(b,until=T), $(b,min_visibility=K), \
                   $(b,bucket=short|medium|long).")
  in
  let order =
    Arg.(value & opt (enum [ ("normal", "normal"); ("reversed", "reversed") ])
           "normal"
         & info [ "order" ] ~docv:"ORDER"
             ~doc:"Vantage list order fed to the mesh ($(b,normal) or \
                   $(b,reversed)); the merged report is byte-identical \
                   either way, which CI asserts.")
  in
  cmd "collect"
    ~doc:"Multi-vantage collector mesh: per-vantage RouteViews-style feeds \
          over a simulated attack, concurrent per-vantage monitors, \
          cross-vantage MOAS correlation with per-episode visibility k/N, \
          and a partition arm where lib/faults isolates one vantage. \
          Reports are byte-identical at any $(b,--jobs) count and vantage \
          order.  $(b,--smoke) runs on the 25-AS topology instead of the \
          46-AS one."
    Term.(const run_collect $ vantages $ jobs_arg $ smoke_arg $ seed_arg $ store
          $ query $ metrics_arg $ order)

let classify_cmd =
  let features =
    Arg.(value & opt (some string) None
         & info [ "features" ] ~docv:"FILE"
             ~doc:"Write the labelled feature matrix (CSV) to FILE.")
  in
  cmd "classify"
    ~doc:"Learned episode classifier: capture the attack / partition / \
          fault-churn scenario corpus, label it with the ROA ground-truth \
          oracle, train logistic-regression and boosted-stump models, and \
          evaluate them against the MOAS-list and always-flag baselines \
          with per-arm precision/recall/F1.  The report is byte-identical \
          at any $(b,--jobs) count, which CI asserts.  $(b,--smoke) builds \
          the corpus from the 25-AS topology only instead of all three paper \
          topologies."
    Term.(const run_classify $ smoke_arg $ jobs_arg $ seed_arg $ features
          $ report_arg $ metrics_arg)

let community_cmd =
  cmd "community"
    ~doc:"Community-telemetry detection head-to-head: run every scenario \
          arm (including the Section 4.3 scrubbing arm) under the per-AS \
          community usage model and score the community-dynamics backend \
          against the MOAS-list check, the footnote-3 detector and the \
          IRR / S-BGP baselines with per-arm precision/recall/F1.  The \
          report is byte-identical at any $(b,--jobs) count, which CI \
          asserts.  $(b,--smoke) runs the 25-AS topology with 2 replicates \
          only instead of all three paper topologies with 3."
    Term.(const run_community $ smoke_arg $ jobs_arg $ seed_arg $ report_arg
          $ metrics_arg)

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"FILE"
           ~doc:"Episode store to serve (written by $(b,collect --store)).")

let serve_cmd =
  let script =
    Arg.(value & opt (some string) None
         & info [ "script" ] ~docv:"FILE"
             ~doc:"Read session commands from FILE instead of stdin: one \
                   command per line among $(b,ping), $(b,stats), \
                   $(b,query Q), $(b,count Q), $(b,subscribe Q), \
                   $(b,unsubscribe ID), $(b,tail [N]), $(b,poll); blank \
                   lines and $(b,#) comments are skipped.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Write a binary checkpoint of the live-tail monitor state \
                   to FILE (at exit, and periodically with \
                   $(b,--checkpoint-every)).")
  in
  let checkpoint_every =
    Arg.(value & opt (some pos_int) None
         & info [ "checkpoint-every" ] ~docv:"BATCHES"
             ~doc:"Also checkpoint every BATCHES tailed batches (a positive \
                   integer; needs $(b,--checkpoint)).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Restore the live-tail monitor from a checkpoint FILE; \
                   $(b,tail) skips archive batches the checkpoint already \
                   covers, and no alert predating it is re-raised — a killed \
                   server resumed this way converges with the uninterrupted \
                   run.")
  in
  cmd "serve"
    ~doc:"Serve an episode store over the versioned MOASSERV wire protocol: \
          typed queries, live-tail alert subscriptions, stats, \
          checkpoint/resume crash recovery.  The scripted session transcript \
          is byte-identical across runs, which CI asserts.  $(b,--smoke) \
          tails the 1/10-size archive instead of the full one."
    Term.(const run_serve $ store_arg $ script $ smoke_arg $ jobs_arg $ seed_arg
          $ checkpoint $ checkpoint_every $ resume $ metrics_arg)

let query_client_cmd =
  let query =
    Arg.(value & opt string ""
         & info [ "query" ] ~docv:"QUERY"
             ~doc:"Typed query, comma-separated key=value clauses among \
                   $(b,prefix=P), $(b,covered=BOOL), $(b,origin=AS), \
                   $(b,since=T), $(b,until=T), $(b,min_visibility=K), \
                   $(b,bucket=short|medium|long); empty matches everything.")
  in
  let count_only =
    Arg.(value & flag & info [ "count" ]
           ~doc:"Ask for the match count instead of the entries.")
  in
  let attempts =
    Arg.(value & opt pos_int 3
         & info [ "attempts" ] ~docv:"N"
             ~doc:"Total call attempts including the first (retries use \
                   capped exponential backoff with seeded jitter).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-attempt reply budget; a slower reply counts as a \
                   failed attempt.")
  in
  let retry_seed =
    Arg.(value & opt int64 0x52E7A11L
         & info [ "retry-seed" ] ~docv:"SEED"
             ~doc:"Seed for the backoff jitter stream.")
  in
  cmd "query-client"
    ~doc:"One query against an episode store through the full MOASSERV wire \
          path (request and response both cross the codec), with \
          idempotence-aware seeded retry."
    Term.(const run_query_client $ store_arg $ query $ count_only $ attempts
          $ timeout $ retry_seed)

let chaos_cmd =
  let requests =
    Arg.(value & opt pos_int 400
         & info [ "requests" ] ~docv:"N"
             ~doc:"Requests per fault plan (positive integer).")
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"NAME"
             ~doc:"Sweep only this plan ($(b,calm), $(b,lossy), \
                   $(b,corrupting) or $(b,hostile)); default all four.")
  in
  let chaos_seed =
    Arg.(value & opt int64 0xC4A05L
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Root seed for fault draws and retry jitter; the whole \
                   transcript is a pure function of it.")
  in
  cmd "chaos"
    ~doc:"Seeded chaos sweep over the serving path: fault plans inject frame \
          drops, corruption, truncation, delays and disconnects between \
          client and server (plus a source-failure degraded arm), asserting \
          that every request answers correctly, is refused with Rejected, or \
          fails cleanly — never a hang, crash or wrong answer.  Exits \
          non-zero on any violation; the transcript is byte-identical for a \
          given seed, which CI asserts.  $(b,--smoke) sweeps over the \
          1/10-size archive store."
    Term.(const run_chaos $ smoke_arg $ requests $ plan $ chaos_seed $ metrics_arg)

let topologies_cmd = cmd "topologies" ~doc:"Describe the derived 25/46/63-AS topologies."
    Term.(const run_topologies $ const ())

let all_cmd = cmd "all" ~doc:"Everything: figures 4-5, experiments 1-3, summary, ablations."
    Term.(const run_all $ seed_arg $ jobs_arg $ out_dir_arg)

let main_cmd =
  let doc =
    "reproduction of 'Detection of Invalid Routing Announcement in the \
     Internet' (DSN 2002)"
  in
  Cmd.group (Cmd.info "moas_sim" ~version:"1.0.0" ~doc)
    [
      fig4_cmd;
      fig5_cmd;
      exp1_cmd;
      exp2_cmd;
      exp3_cmd;
      summary_cmd;
      ablations_cmd;
      compare_cmd;
      studies_cmd;
      robustness_cmd;
      monitor_cmd;
      collect_cmd;
      classify_cmd;
      community_cmd;
      serve_cmd;
      query_client_cmd;
      chaos_cmd;
      simulate_cmd;
      topologies_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
