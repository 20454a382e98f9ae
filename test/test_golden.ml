(* Golden regression tests: the headline numbers of EXPERIMENTS.md, pinned
   with tolerances.  Every value here is a mean over the paper's 15-run
   protocol with the default seeds; a change means the reproduction's
   behaviour changed and EXPERIMENTS.md must be re-derived. *)

module Sweep = Experiments.Sweep
module Topo = Topology.Paper_topologies
module Srv = Measurement.Synthetic_routeviews
module Rp = Stream.Report

let adoption ~topology ~deployment ~n_attackers =
  let cfg = Sweep.config ~topology ~n_origins:1 ~deployment () in
  (Sweep.run_point cfg ~n_attackers).Sweep.mean_adopting

let check_close name ~expected ~tolerance actual =
  if abs_float (actual -. expected) > tolerance then
    Alcotest.failf "%s drifted: expected %.4f +- %.4f, got %.4f" name expected
      tolerance actual

let test_topology_fingerprints () =
  List.iter2
    (fun t (nodes, edges) ->
      Alcotest.(check int) (t.Topo.name ^ " nodes") nodes
        (Topology.As_graph.node_count t.Topo.graph);
      Alcotest.(check int) (t.Topo.name ^ " edges") edges
        (Topology.As_graph.edge_count t.Topo.graph))
    (Topo.all ())
    [ (25, 28); (46, 90); (63, 174) ]

let test_figure9_headline () =
  let t46 = Topo.topology_46 () in
  check_close "46-AS @2 attackers, Normal BGP" ~expected:0.3911 ~tolerance:0.0005
    (adoption ~topology:t46 ~deployment:Moas.Deployment.Disabled ~n_attackers:1);
  check_close "46-AS @30% attackers, Normal BGP" ~expected:0.9042 ~tolerance:0.0005
    (adoption ~topology:t46 ~deployment:Moas.Deployment.Disabled ~n_attackers:14);
  check_close "46-AS @30% attackers, Full MOAS" ~expected:0.1125 ~tolerance:0.0005
    (adoption ~topology:t46 ~deployment:Moas.Deployment.Full ~n_attackers:14)

let test_figure10_ordering () =
  let at_35pct topology =
    let n = Topology.As_graph.node_count topology.Topo.graph in
    adoption ~topology ~deployment:Moas.Deployment.Full
      ~n_attackers:(int_of_float (Float.round (0.35 *. float_of_int n)))
  in
  let a25 = at_35pct (Topo.topology_25 ()) in
  let a46 = at_35pct (Topo.topology_46 ()) in
  let a63 = at_35pct (Topo.topology_63 ()) in
  check_close "25-AS @35%, Full MOAS" ~expected:0.2542 ~tolerance:0.0005 a25;
  check_close "46-AS @35%, Full MOAS" ~expected:0.1356 ~tolerance:0.0005 a46;
  check_close "63-AS @35%, Full MOAS" ~expected:0.0878 ~tolerance:0.0005 a63;
  Alcotest.(check bool) "Experiment 2 ordering" true (a25 > a46 && a46 > a63)

let test_figure11_headline () =
  let t63 = Topo.topology_63 () in
  check_close "63-AS @30%, Half MOAS" ~expected:0.4985 ~tolerance:0.0005
    (adoption ~topology:t63 ~deployment:(Moas.Deployment.Fraction 0.5)
       ~n_attackers:19)

let section3 () = Rp.section3 (Stream.Source.of_archive Srv.default_params)
let measurement_summary = lazy (section3 ())

let test_measurement_aggregates () =
  let s = Lazy.force measurement_summary in
  Alcotest.(check int) "total MOAS cases" 3824 (List.length s.Rp.cases);
  Alcotest.(check int) "one-day cases" 1375
    (List.length (List.filter (fun c -> c.Rp.c_days = 1) s.Rp.cases));
  Alcotest.(check int) "observed days" 1279 (List.length s.Rp.daily_counts);
  check_close "median daily 1998" ~expected:676.0 ~tolerance:1.0
    (Rp.median_daily_in_year s 1998);
  check_close "median daily 2001" ~expected:1288.0 ~tolerance:1.0
    (Rp.median_daily_in_year s 2001);
  Alcotest.(check int) "2001 event day" 2253 (Rp.cases_on s Srv.event_2001)

let test_measurement_is_deterministic () =
  let a = Lazy.force measurement_summary in
  let b = section3 () in
  Alcotest.(check bool) "same daily series on re-run" true
    (a.Rp.daily_counts = b.Rp.daily_counts)

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "topology fingerprints" `Quick test_topology_fingerprints;
          Alcotest.test_case "figure 9 headline" `Slow test_figure9_headline;
          Alcotest.test_case "figure 10 ordering" `Slow test_figure10_ordering;
          Alcotest.test_case "figure 11 headline" `Slow test_figure11_headline;
          Alcotest.test_case "measurement aggregates" `Quick test_measurement_aggregates;
          Alcotest.test_case "measurement determinism" `Quick
            test_measurement_is_deterministic;
        ] );
    ]
