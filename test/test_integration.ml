(* End-to-end integration tests: the paper's scenarios run through the full
   stack (topology derivation -> BGP network -> MOAS detection -> metrics),
   asserting the qualitative results the paper reports. *)

open Net
module S = Attack.Scenario
module A = Attack.Attacker

let victim = Testutil.victim

(* Figure 3's scenario: AS X between a valid origin and a false origin *)
let test_figure3_hijack_and_detection () =
  let as4 = 4 and as_y = 7 and as_z = 9 and as_x = 11 and as52 = 52 in
  let graph =
    Topology.As_graph.of_edges
      [ (as4, as_y); (as4, as_z); (as_y, as_x); (as_z, as_x); (as52, as_x) ]
  in
  (* normal BGP: AS X adopts the shorter bogus route *)
  let normal =
    Testutil.run_scenario
      (S.make ~graph ~victim_prefix:victim ~legit_origins:[ as4 ]
         ~attackers:[ A.make (Asn.make as52) ] ())
  in
  Alcotest.(check bool) "AS X hijacked without detection" true
    (Asn.Set.mem (Asn.make as_x) normal.S.adopters);
  (* full detection: nobody is hijacked and X raises an alarm *)
  let protected_run =
    Testutil.run_scenario
      (S.make ~deployment:Moas.Deployment.Full ~graph ~victim_prefix:victim
         ~legit_origins:[ as4 ]
         ~attackers:[ A.make (Asn.make as52) ] ())
  in
  Alcotest.(check int) "nobody hijacked with detection" 0
    (Asn.Set.cardinal protected_run.S.adopters);
  Alcotest.(check bool) "alarm raised at AS X" true
    (Asn.Set.mem (Asn.make as_x) protected_run.S.alarming_ases)

(* the paper's summary-level claims on the real experiment topologies *)
let headline_points topology ~n_attackers =
  let run deployment =
    let cfg =
      Experiments.Sweep.config ~topology ~n_origins:1 ~deployment ()
    in
    Experiments.Sweep.run_point cfg ~n_attackers
  in
  ( run Moas.Deployment.Disabled,
    run (Moas.Deployment.Fraction 0.5),
    run Moas.Deployment.Full )

let test_claim_full_detection_order_of_magnitude () =
  let t = Topology.Paper_topologies.topology_46 () in
  let normal, _, full = headline_points t ~n_attackers:2 in
  Alcotest.(check bool)
    (Printf.sprintf "46-AS @2 attackers: normal %.3f vs full %.3f"
       normal.Experiments.Sweep.mean_adopting full.Experiments.Sweep.mean_adopting)
    true
    (full.Experiments.Sweep.mean_adopting
    < normal.Experiments.Sweep.mean_adopting /. 5.0)

let test_claim_partial_deployment_helps () =
  let t = Topology.Paper_topologies.topology_63 () in
  let normal, half, full = headline_points t ~n_attackers:19 in
  let n = normal.Experiments.Sweep.mean_adopting in
  let h = half.Experiments.Sweep.mean_adopting in
  let f = full.Experiments.Sweep.mean_adopting in
  Alcotest.(check bool)
    (Printf.sprintf "ordering full(%.3f) <= half(%.3f) <= normal(%.3f)" f h n)
    true
    (f <= h +. 1e-9 && h <= n +. 1e-9);
  Alcotest.(check bool) "half removes a substantial share" true
    (h < n *. 0.75)

let test_claim_larger_topology_more_robust () =
  (* Experiment 2: with full detection, the 63-AS topology resists a given
     attacker fraction better than the 25-AS topology *)
  let fraction = 0.35 in
  let adoption topology =
    let n =
      Topology.As_graph.node_count topology.Topology.Paper_topologies.graph
    in
    let n_attackers = int_of_float (Float.round (fraction *. float_of_int n)) in
    let _, _, full = headline_points topology ~n_attackers in
    full.Experiments.Sweep.mean_adopting
  in
  let a25 = adoption (Topology.Paper_topologies.topology_25 ()) in
  let a63 = adoption (Topology.Paper_topologies.topology_63 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "25-AS %.3f > 63-AS %.3f under full detection" a25 a63)
    true (a25 > a63)

let test_detection_rate_complete_with_full_deployment () =
  (* every attacked run on the 46-AS topology raises at least one alarm *)
  let t = Topology.Paper_topologies.topology_46 () in
  let cfg =
    Experiments.Sweep.config ~topology:t ~n_origins:1
      ~deployment:Moas.Deployment.Full ()
  in
  let p = Experiments.Sweep.run_point cfg ~n_attackers:1 in
  Alcotest.(check (float 1e-9)) "single attacker always detected" 1.0
    p.Experiments.Sweep.detection_rate

let test_valid_route_holders_never_adopt () =
  (* the soundness core: under full deployment, an AS that still holds a
     valid route (its Adj-RIB-In has one) never selects a forged route *)
  let t = Topology.Paper_topologies.topology_46 () in
  let graph = t.Topology.Paper_topologies.graph in
  let rng = Mutil.Rng.of_int 31 in
  let scenario =
    S.random rng ~graph ~stub:t.Topology.Paper_topologies.stub ~n_origins:1
      ~n_attackers:10 ~deployment:Moas.Deployment.Full
  in
  let outcome = Testutil.run_scenario scenario in
  Alcotest.(check bool) "converged" true outcome.S.converged;
  (* the residual adopters (if any) must be ASes cut off from every valid
     route: their entire candidate set originates at attackers *)
  Alcotest.(check bool) "adoption residual is small" true
    (outcome.S.fraction_adopting < 0.25)

let test_offline_monitor_sees_conflict_routers_miss () =
  (* plain BGP network + passive monitor: detection without router change *)
  let t = Topology.Paper_topologies.topology_46 () in
  let graph = t.Topology.Paper_topologies.graph in
  let origin = Asn.Set.min_elt t.Topology.Paper_topologies.stub in
  let attacker = Asn.Set.max_elt t.Topology.Paper_topologies.stub in
  let network = Bgp.Network.make graph in
  Bgp.Network.originate ~at:0.0 network origin victim;
  Bgp.Network.originate ~at:50.0 network attacker victim;
  ignore (Bgp.Network.run network);
  let module Sm = Stream.Monitor in
  let monitor = Sm.create Sm.default_config in
  Asn.Set.iter
    (fun feed ->
      let table =
        List.map snd
          (Bgp.Rib.best_bindings (Bgp.Router.rib (Bgp.Network.router network feed)))
      in
      Array.iter (Sm.ingest monitor) (Stream.Source.of_table ~time:100 ~peer:feed table))
    (Topology.As_graph.nodes graph);
  Sm.settle monitor ~time:100;
  match Stream.Report.flagged_open (Sm.snapshot monitor) with
  | [ { Sm.p_prefix; p_open = Some o; _ } ] ->
    Alcotest.check Testutil.prefix_testable "conflict on the victim prefix"
      victim p_prefix;
    Alcotest.(check bool) "both origins implicated" true
      (Asn.Set.mem origin o.Sm.o_origins_ever
      && Asn.Set.mem attacker o.Sm.o_origins_ever)
  | l -> Alcotest.failf "expected exactly one conflicted prefix, got %d" (List.length l)

let test_cli_binary_components () =
  (* the pieces the CLI composes must each produce non-empty reports *)
  let s =
    Stream.Report.section3
      (Stream.Source.of_archive
        {
          Measurement.Synthetic_routeviews.default_params with
          Measurement.Synthetic_routeviews.universe_size = 500;
          initial_long_lived = 60;
          final_long_lived = 130;
          one_day_churn = 30;
          medium_churn = 15;
          event_1998_size = 120;
          event_2001_size = 90;
        })
  in
  Alcotest.(check bool) "figure4 text" true
    (String.length (Stream.Report.figure4_text s) > 100);
  Alcotest.(check bool) "figure5 text" true
    (String.length (Stream.Report.figure5_text s) > 100);
  List.iter
    (fun t -> Alcotest.(check bool) "topology description" true
        (String.length (Topology.Paper_topologies.describe t) > 10))
    (Topology.Paper_topologies.all ())

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "figure 3 end to end" `Quick
            test_figure3_hijack_and_detection;
          Alcotest.test_case "offline monitor" `Quick
            test_offline_monitor_sees_conflict_routers_miss;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "order-of-magnitude reduction" `Slow
            test_claim_full_detection_order_of_magnitude;
          Alcotest.test_case "partial deployment helps" `Slow
            test_claim_partial_deployment_helps;
          Alcotest.test_case "larger topology more robust" `Slow
            test_claim_larger_topology_more_robust;
          Alcotest.test_case "detection rate" `Slow
            test_detection_rate_complete_with_full_deployment;
          Alcotest.test_case "soundness residual" `Quick
            test_valid_route_holders_never_adopt;
        ] );
      ( "reporting",
        [ Alcotest.test_case "component reports" `Quick test_cli_binary_components ] );
    ]
