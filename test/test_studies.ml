(* Tests for the anomaly detector, the vantage-point study and the
   detection-convergence study. *)

module Day = Mutil.Day
module Anomaly = Measurement.Anomaly
module Vs = Experiments.Vantage_study

let flat ?(level = 100) n = List.init n (fun i -> (i, level))

let test_flat_series_quiet () =
  Alcotest.(check int) "no spikes on a flat series" 0
    (List.length (Anomaly.detect (flat 200)))

let test_single_spike_found () =
  let series =
    List.mapi (fun i (d, c) -> if i = 100 then (d, 500) else (d, c)) (flat 200)
  in
  match Anomaly.detect series with
  | [ spike ] ->
    Alcotest.(check int) "spike day" 100 spike.Anomaly.day;
    Alcotest.(check int) "spike count" 500 spike.Anomaly.count;
    Alcotest.(check bool) "magnitude 5x" true
      (abs_float (spike.Anomaly.magnitude -. 5.0) < 0.01)
  | l -> Alcotest.failf "expected one spike, got %d" (List.length l)

let test_slow_growth_quiet () =
  (* the multi-homing ramp: +1 per day must never alarm *)
  let series = List.init 500 (fun i -> (i, 100 + i)) in
  Alcotest.(check int) "growth is not an anomaly" 0
    (List.length (Anomaly.detect series))

let test_warmup_days_never_flagged () =
  (* a spike inside the warm-up window has no baseline *)
  let series =
    List.mapi (fun i (d, c) -> if i = 10 then (d, 10_000) else (d, c)) (flat 50)
  in
  Alcotest.(check int) "warm-up spike ignored" 0
    (List.length (Anomaly.detect ~window:30 series))

let test_two_spikes_independent () =
  let series =
    List.mapi
      (fun i (d, c) -> if i = 60 || i = 150 then (d, 400) else (d, c))
      (flat 200)
  in
  Alcotest.(check (list int)) "both events flagged" [ 60; 150 ]
    (List.map (fun s -> s.Anomaly.day) (Anomaly.detect series))

let test_validation () =
  Alcotest.check_raises "bad window"
    (Invalid_argument "Anomaly.detect: window must be positive") (fun () ->
      ignore (Anomaly.detect ~window:0 []));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Anomaly.detect: threshold must exceed 1") (fun () ->
      ignore (Anomaly.detect ~threshold:0.5 []))

let test_paper_events_detected () =
  let s =
    Stream.Report.section3
      (Stream.Source.of_archive
        {
          Measurement.Synthetic_routeviews.default_params with
          Measurement.Synthetic_routeviews.universe_size = 600;
          initial_long_lived = 80;
          final_long_lived = 170;
          one_day_churn = 30;
          medium_churn = 12;
          event_1998_size = 160;
          event_2001_size = 130;
        })
  in
  let spikes = Anomaly.detect s.Stream.Report.daily_counts in
  let days = List.map (fun s -> s.Anomaly.day) spikes in
  Alcotest.(check bool) "1998-04-07 flagged" true
    (List.mem Measurement.Synthetic_routeviews.event_1998 days);
  Alcotest.(check bool) "2001-04-06 flagged" true
    (List.mem Measurement.Synthetic_routeviews.event_2001 days);
  (* nothing outside the two documented events (+1 day for the two-day
     2001 event) *)
  List.iter
    (fun day ->
      let ok =
        day = Measurement.Synthetic_routeviews.event_1998
        || day = Measurement.Synthetic_routeviews.event_2001
        || day = Day.add Measurement.Synthetic_routeviews.event_2001 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "no false positive on %s" (Day.to_string day))
        true ok)
    days

let test_vantage_monotone () =
  let t = Topology.Paper_topologies.topology_46 () in
  let points = Vs.study ~runs:6 ~feed_counts:[ 1; 4; 46 ] ~topology:t () in
  (match points with
  | [ one; four; all ] ->
    Alcotest.(check bool) "more feeds, no worse detection" true
      (one.Vs.detection_rate <= four.Vs.detection_rate +. 1e-9
      && four.Vs.detection_rate <= all.Vs.detection_rate +. 1e-9);
    (* polling every AS always sees the conflict: both the valid and the
       forged route are someone's best *)
    Alcotest.(check (float 1e-9)) "full coverage catches everything" 1.0
      all.Vs.detection_rate
  | _ -> Alcotest.fail "expected three points");
  Testutil.check_contains ~what:"render" (Vs.render points) "monitor feeds"

let test_convergence_study () =
  let t = Topology.Paper_topologies.topology_46 () in
  let points =
    Experiments.Convergence.study ~runs:4 ~n_attackers_list:[ 1; 5 ] ~topology:t ()
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "always detected" true
        (p.Experiments.Convergence.detection_rate > 0.99);
      Alcotest.(check bool) "latency within settle time" true
        (p.Experiments.Convergence.mean_detection_latency
        <= p.Experiments.Convergence.mean_settle_time +. 1e-9);
      Alcotest.(check bool) "positive octet accounting" true
        (p.Experiments.Convergence.mean_wire_octets > 0.0))
    points;
  let rendered = Experiments.Convergence.render points in
  Testutil.check_contains ~what:"render" rendered "detection rate"

let () =
  Alcotest.run "studies"
    [
      ( "anomaly",
        [
          Alcotest.test_case "flat quiet" `Quick test_flat_series_quiet;
          Alcotest.test_case "single spike" `Quick test_single_spike_found;
          Alcotest.test_case "slow growth quiet" `Quick test_slow_growth_quiet;
          Alcotest.test_case "warm-up ignored" `Quick test_warmup_days_never_flagged;
          Alcotest.test_case "two events" `Quick test_two_spikes_independent;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "paper events" `Quick test_paper_events_detected;
        ] );
      ( "vantage",
        [ Alcotest.test_case "monotone in feeds" `Quick test_vantage_monotone ] );
      ( "convergence",
        [ Alcotest.test_case "study" `Quick test_convergence_study ] );
    ]
