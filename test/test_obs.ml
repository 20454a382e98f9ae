(* Tests for the observability layer: the metrics registry (counters,
   gauges, histograms, labels, exporters) and its integration with the
   instrumented simulation engine, routers and detectors. *)

module R = Obs.Registry

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_merge () =
  let a = R.create () in
  let b = R.create () in
  R.Counter.add (R.counter a "events") 10;
  R.Counter.add (R.counter b "events") 32;
  R.Counter.add (R.counter b ~labels:[ ("as", "7") ] "sent") 5;
  R.Gauge.set (R.gauge a "depth") 2.0;
  R.Gauge.set (R.gauge b "depth") 1.5;
  let ha = R.histogram a ~buckets:[ 1.0; 10.0 ] "lat" in
  let hb = R.histogram b ~buckets:[ 1.0; 10.0 ] "lat" in
  List.iter (R.Histogram.observe ha) [ 0.5; 5.0 ];
  List.iter (R.Histogram.observe hb) [ 0.7; 50.0 ];
  R.merge ~into:a b;
  Alcotest.(check int) "counters add" 42 (R.counter_value a "events");
  Alcotest.(check int) "missing counter created" 5
    (R.counter_value a ~labels:[ ("as", "7") ] "sent");
  Alcotest.(check (float 1e-9)) "gauges add" 3.5
    (R.Gauge.value (R.gauge a "depth"));
  Alcotest.(check int) "histogram count" 4 (R.Histogram.count ha);
  Alcotest.(check (float 1e-9)) "histogram sum" 56.2 (R.Histogram.sum ha);
  Alcotest.(check (list (pair (float 0.0) int)))
    "histogram buckets add"
    [ (1.0, 2); (10.0, 1); (infinity, 1) ]
    (R.Histogram.buckets ha);
  (* the source is left untouched and noop merges are inert *)
  Alcotest.(check int) "source unchanged" 32 (R.counter_value b "events");
  R.merge ~into:a R.noop;
  R.merge ~into:R.noop b;
  Alcotest.(check int) "noop merge inert" 42 (R.counter_value a "events");
  Alcotest.check_raises "bound mismatch rejected"
    (Invalid_argument "Registry.merge: lat has different bucket bounds")
    (fun () ->
      let c = R.create () in
      ignore (R.histogram c ~buckets:[ 2.0; 3.0 ] "lat");
      R.merge ~into:a c)

let test_counter () =
  let reg = R.create () in
  let c = R.counter reg "updates" in
  R.Counter.incr c;
  R.Counter.add c 4;
  Alcotest.(check int) "value" 5 (R.Counter.value c);
  Alcotest.(check int) "counter_value" 5 (R.counter_value reg "updates");
  Alcotest.check_raises "negative add"
    (Invalid_argument "Registry.Counter.add: negative increment") (fun () ->
      R.Counter.add c (-1))

let test_gauge () =
  let reg = R.create () in
  let g = R.gauge reg "depth" in
  R.Gauge.set g 3.0;
  R.Gauge.add g 1.5;
  Alcotest.(check (float 1e-9)) "set+add" 4.5 (R.Gauge.value g);
  R.Gauge.observe_max g 2.0;
  Alcotest.(check (float 1e-9)) "max keeps larger" 4.5 (R.Gauge.value g);
  R.Gauge.observe_max g 9.0;
  Alcotest.(check (float 1e-9)) "max takes larger" 9.0 (R.Gauge.value g)

let test_histogram () =
  let reg = R.create () in
  let h = R.histogram reg ~buckets:[ 1.0; 10.0 ] "lat" in
  List.iter (R.Histogram.observe h) [ 0.5; 0.7; 5.0; 50.0 ];
  Alcotest.(check int) "count" 4 (R.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 56.2 (R.Histogram.sum h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets"
    [ (1.0, 2); (10.0, 1); (infinity, 1) ]
    (R.Histogram.buckets h);
  Alcotest.check_raises "unsorted buckets"
    (Invalid_argument "Registry.histogram: bucket bounds must be increasing")
    (fun () -> ignore (R.histogram reg ~buckets:[ 2.0; 1.0 ] "bad"))

let test_same_instrument () =
  let reg = R.create () in
  let a = R.counter reg ~labels:[ ("as", "7") ] "sent" in
  (* same name+labels (any label order) -> the same underlying counter *)
  let b = R.counter reg ~labels:[ ("as", "7") ] "sent" in
  R.Counter.incr a;
  R.Counter.incr b;
  Alcotest.(check int) "shared" 2 (R.Counter.value a);
  (* different labels -> a distinct series *)
  let c = R.counter reg ~labels:[ ("as", "9") ] "sent" in
  R.Counter.incr c;
  Alcotest.(check int) "distinct series" 1
    (R.counter_value reg ~labels:[ ("as", "9") ] "sent");
  Alcotest.(check int) "sum over label sets" 3 (R.sum_counters reg "sent")

let test_kind_mismatch () =
  let reg = R.create () in
  ignore (R.counter reg "x");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: x is already a counter, not a gauge")
    (fun () -> ignore (R.gauge reg "x"))

let test_noop () =
  let reg = R.noop in
  Alcotest.(check bool) "is_noop" true (R.is_noop reg);
  Alcotest.(check bool) "live is not noop" false (R.is_noop (R.create ()));
  let c = R.counter reg "sent" in
  R.Counter.incr c;
  Alcotest.(check int) "updates discarded" 0 (R.Counter.value c);
  let g = R.gauge reg "depth" in
  R.Gauge.set g 5.0;
  Alcotest.(check (float 0.0)) "gauge inert" 0.0 (R.Gauge.value g);
  Alcotest.(check int) "no samples" 0 (List.length (R.samples reg));
  Alcotest.(check string) "no json" "" (R.to_json_lines reg)

let test_samples_sorted () =
  let reg = R.create () in
  ignore (R.gauge reg "zeta");
  ignore (R.counter reg ~labels:[ ("as", "9") ] "alpha");
  ignore (R.counter reg ~labels:[ ("as", "10") ] "alpha");
  let names =
    List.map
      (fun s -> (s.R.name, s.R.labels))
      (R.samples reg)
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "sorted by name then labels"
    [
      ("alpha", [ ("as", "10") ]);
      ("alpha", [ ("as", "9") ]);
      ("zeta", []);
    ]
    names

let test_json_lines () =
  let reg = R.create () in
  let c = R.counter reg ~labels:[ ("as", "7") ] "sent" in
  R.Counter.add c 3;
  R.Gauge.set (R.gauge reg "wall") 0.25;
  Alcotest.(check string) "lines"
    "{\"metric\":\"sent\",\"labels\":{\"as\":\"7\",\"workload\":\"46-AS\"},\"type\":\"counter\",\"value\":3}\n\
     {\"metric\":\"wall\",\"labels\":{\"workload\":\"46-AS\"},\"type\":\"gauge\",\"value\":0.25}\n"
    (R.to_json_lines ~extra:[ ("workload", "46-AS") ] reg)

let test_csv_and_clear () =
  let reg = R.create () in
  R.Counter.incr (R.counter reg "n");
  let header, rows = R.to_csv reg in
  Alcotest.(check (list string)) "header"
    [ "metric"; "labels"; "type"; "value" ] header;
  Alcotest.(check (list (list string))) "rows" [ [ "n"; ""; "counter"; "1" ] ]
    rows;
  R.clear reg;
  Alcotest.(check int) "cleared" 0 (List.length (R.samples reg))

(* ------------------------------------------------------------------ *)
(* Engine integration: the instrumented hot path feeds the registry *)

let test_engine_metrics () =
  let reg = R.create () in
  let wall =
    let now = ref 0.0 in
    fun () ->
      now := !now +. 0.125;
      !now
  in
  let engine = Sim.Engine.create ~metrics:reg ~wall_clock:wall () in
  for i = 1 to 5 do
    Sim.Engine.schedule engine ~delay:(float_of_int i) (fun _ -> ())
  done;
  ignore (Sim.Engine.run engine);
  Alcotest.(check int) "events counter" 5
    (R.counter_value reg "sim_events_executed");
  Alcotest.(check int) "high-water accessor" 5
    (Sim.Engine.queue_high_water engine);
  let hwm =
    List.find_map
      (fun s ->
        match (s.R.name, s.R.value) with
        | "sim_queue_depth_hwm", R.Gauge v -> Some v
        | _ -> None)
      (R.samples reg)
  in
  Alcotest.(check (option (float 1e-9))) "high-water gauge" (Some 5.0) hwm;
  let wall_s =
    List.find_map
      (fun s ->
        match (s.R.name, s.R.value) with
        | "sim_run_wall_s", R.Gauge v -> Some v
        | _ -> None)
      (R.samples reg)
  in
  Alcotest.(check bool) "wall time recorded" true
    (match wall_s with Some v -> v > 0.0 | None -> false)

let test_network_metrics () =
  let a = Net.Asn.make 1 and b = Net.Asn.make 2 and c = Net.Asn.make 3 in
  let graph = Topology.As_graph.of_edges [ (a, b); (b, c) ] in
  let reg = R.create () in
  let net =
    Bgp.Network.make
      ~config:Bgp.Network.Config.(default |> with_metrics reg)
      graph
  in
  Bgp.Network.originate net a (Net.Prefix.of_string "10.0.0.0/8");
  ignore (Bgp.Network.run net);
  Alcotest.(check bool) "updates flowed" true
    (R.sum_counters reg "bgp_updates_sent" > 0);
  Alcotest.(check bool) "per-AS series exist" true
    (R.counter_value reg ~labels:[ ("as", "AS1") ] "bgp_updates_sent" > 0);
  Alcotest.(check bool) "decision process counted" true
    (R.sum_counters reg "bgp_decisions" > 0);
  Alcotest.(check int) "events flowed through the engine"
    (Sim.Engine.events_executed (Bgp.Network.engine net))
    (R.counter_value reg "sim_events_executed")

(* One Full-deployment attack scenario per paper topology with a live
   registry: the engine, every router and every detector feed it, and the
   four headline counters are pinned.  Any change to what the simulation
   does, or to where it counts, moves one of them. *)
let test_workload_counters () =
  List.iter
    (fun (name, topology, n_attackers, want) ->
      let t = topology () in
      let metrics = R.create () in
      let scenario =
        Attack.Scenario.random (Mutil.Rng.of_int 97)
          ~graph:t.Topology.Paper_topologies.graph
          ~stub:t.Topology.Paper_topologies.stub ~n_origins:1 ~n_attackers
          ~deployment:Moas.Deployment.Full
      in
      ignore (Attack.Scenario.run ~metrics (Mutil.Rng.of_int 3) scenario);
      Alcotest.(check (list int))
        (name ^ ": events / sent / received / alarms")
        want
        (List.map (R.counter_value metrics)
           [
             "sim_events_executed";
             "bgp_updates_sent_total";
             "bgp_updates_received_total";
             "moas_alarms_total";
           ]))
    [
      ("25-AS", Topology.Paper_topologies.topology_25, 3, [ 46; 42; 42; 6 ]);
      ("46-AS", Topology.Paper_topologies.topology_46, 5, [ 157; 151; 151; 12 ]);
      ("63-AS", Topology.Paper_topologies.topology_63, 8, [ 313; 304; 304; 15 ]);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "same instrument" `Quick test_same_instrument;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "noop" `Quick test_noop;
          Alcotest.test_case "sorted samples" `Quick test_samples_sorted;
          Alcotest.test_case "json lines" `Quick test_json_lines;
          Alcotest.test_case "csv + clear" `Quick test_csv_and_clear;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine metrics" `Quick test_engine_metrics;
          Alcotest.test_case "network metrics" `Quick test_network_metrics;
          Alcotest.test_case "workload counters" `Quick test_workload_counters;
        ] );
    ]
