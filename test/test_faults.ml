(* Tests for the fault-injection subsystem: Fault_plan validation,
   Injector scheduling / determinism / cancellation, per-link message
   impairments, and router crash/restart driven end-to-end through
   Bgp.Network. *)

open Net
module Network = Bgp.Network
module Plan = Faults.Fault_plan
module Injector = Faults.Injector
module Rng = Mutil.Rng
module Engine = Sim.Engine

let victim = Testutil.victim
let asn = Asn.make
let line () = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ]
let rng ?(seed = 0xFA17L) () = Rng.create ~seed

(* ------------------------------- plans -------------------------------- *)

let test_plan_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Fault_plan.link: self loop")
    (fun () -> ignore (Plan.link (asn 1) (asn 1)))

let test_plan_rejects_bad_times () =
  Alcotest.check_raises "negative at"
    (Invalid_argument "Fault_plan.fail: negative time") (fun () ->
      ignore (Plan.fail ~at:(-1.0) (Plan.router (asn 1))));
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Fault_plan.fail: duration must be positive") (fun () ->
      ignore (Plan.fail ~duration:0.0 ~at:1.0 (Plan.router (asn 1))))

let test_plan_rejects_bad_flap () =
  Alcotest.check_raises "period <= down_for"
    (Invalid_argument "Fault_plan.flap: period must exceed down_for")
    (fun () ->
      ignore
        (Plan.flap ~start:0.0 ~period:5.0 ~down_for:5.0 ~until:100.0
           (Plan.link (asn 1) (asn 2))));
  Alcotest.check_raises "until before start"
    (Invalid_argument "Fault_plan.flap: until before start") (fun () ->
      ignore
        (Plan.flap ~start:10.0 ~period:5.0 ~down_for:1.0 ~until:9.0
           (Plan.link (asn 1) (asn 2))))

let test_plan_rejects_bad_churn () =
  let pool = [ Plan.link (asn 1) (asn 2) ] in
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Fault_plan.churn: rate must be positive") (fun () ->
      ignore (Plan.churn ~rate:0.0 ~mean_downtime:5.0 ~until:100.0 pool));
  Alcotest.check_raises "empty pool"
    (Invalid_argument "Fault_plan.churn: no targets") (fun () ->
      ignore (Plan.churn ~rate:0.1 ~mean_downtime:5.0 ~until:100.0 []))

let test_plan_rejects_bad_impairment () =
  Alcotest.check_raises "loss out of range"
    (Invalid_argument "Network.impairment: loss out of [0,1]") (fun () ->
      ignore (Plan.impair ~loss:1.5 ~at:0.0 (asn 1) (asn 2)))

let test_plan_composition () =
  let plan =
    Plan.all
      [
        Plan.fail ~at:10.0 (Plan.link (asn 1) (asn 2));
        Plan.flap ~start:0.0 ~period:10.0 ~down_for:2.0 ~until:50.0
          (Plan.router (asn 3));
        Plan.impair ~loss:0.5 ~at:5.0 (asn 2) (asn 3);
      ]
  in
  Alcotest.(check int) "three specs" 3 (Plan.size plan);
  Alcotest.(check int) "three targets" 3 (List.length (Plan.targets plan));
  Alcotest.(check int) "empty is empty" 0 (Plan.size Plan.empty);
  Alcotest.(check int) "union concatenates" 3
    (Plan.size (Plan.union plan Plan.empty));
  (* one rendered line per spec *)
  Alcotest.(check int) "to_string lines" 3
    (List.length (String.split_on_char '\n' (Plan.to_string plan)))

let test_plan_graph_target_pools () =
  let g = line () in
  Alcotest.(check int) "one target per edge" 3
    (List.length (Plan.link_targets g))

(* ------------------------------ injector ------------------------------- *)

let test_arm_validates_targets () =
  let net = Network.make (line ()) in
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Injector.arm: link AS1-AS3 does not exist") (fun () ->
      ignore
        (Injector.arm ~rng:(rng ()) net
           (Plan.fail ~at:1.0 (Plan.Link (asn 1, asn 3)))));
  Alcotest.check_raises "unknown router"
    (Invalid_argument "Injector.arm: router AS9 is not in the topology")
    (fun () ->
      ignore
        (Injector.arm ~rng:(rng ()) net
           (Plan.fail ~at:1.0 (Plan.router (asn 9)))))

let reachability net =
  List.map (fun a -> Network.best_route net a victim <> None) [ 1; 2; 3; 4 ]

let test_one_shot_matches_direct_call () =
  (* a plan-driven cut must leave the network in exactly the state a
     direct Network.fail_link_now call at the same time does *)
  let direct = Network.make (line ()) in
  Network.originate ~at:0.0 direct 1 victim;
  Engine.schedule_at (Network.engine direct) ~time:50.0 (fun _ ->
      Network.fail_link_now direct (asn 2) (asn 3));
  ignore (Network.run direct);
  let injected = Network.make (line ()) in
  Network.originate ~at:0.0 injected 1 victim;
  let inj =
    Injector.arm ~rng:(rng ()) injected
      (Plan.fail ~at:50.0 (Plan.link (asn 2) (asn 3)))
  in
  ignore (Network.run injected);
  Alcotest.(check (list bool)) "same reachability" (reachability direct)
    (reachability injected);
  Alcotest.(check bool) "link down" false (Network.link_is_up injected 2 3);
  Alcotest.(check int) "one fault applied" 1 (Injector.injected inj)

let test_fail_with_duration_recovers () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  let inj =
    Injector.arm ~rng:(rng ()) net
      (Plan.fail ~duration:50.0 ~at:50.0 (Plan.link (asn 2) (asn 3)))
  in
  Alcotest.(check bool) "converged" true (Network.run net = Engine.Quiescent);
  Alcotest.(check bool) "link back up" true (Network.link_is_up net 2 3);
  Alcotest.(check (list bool)) "all recovered" [ true; true; true; true ]
    (reachability net);
  Alcotest.(check int) "down then up" 2 (Injector.injected inj)

let test_router_crash_and_restart () =
  (* crash the origin for a while: the whole line loses the route, then
     the restart re-announces the surviving startup configuration *)
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  let inj =
    Injector.arm ~rng:(rng ()) net
      (Plan.fail ~duration:100.0 ~at:50.0 (Plan.router (asn 1)))
  in
  ignore (Network.run net);
  Alcotest.(check bool) "router back up" true (Network.router_is_up net 1);
  Alcotest.(check (list bool)) "route re-propagated" [ true; true; true; true ]
    (reachability net);
  Alcotest.(check int) "crash then restart" 2 (Injector.injected inj)

let test_router_crash_forever () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  ignore
    (Injector.arm ~rng:(rng ()) net (Plan.fail ~at:50.0 (Plan.router (asn 1))));
  ignore (Network.run net);
  Alcotest.(check bool) "router down" false (Network.router_is_up net 1);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d lost the route" a)
        true
        (Network.best_route net a victim = None))
    [ 2; 3; 4 ]

let test_flap_cycle_count () =
  (* cycles start at 50, 70 and 90 (down 5 s each): six state changes *)
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  let inj =
    Injector.arm ~rng:(rng ()) net
      (Plan.flap ~start:50.0 ~period:20.0 ~down_for:5.0 ~until:90.0
         (Plan.link (asn 2) (asn 3)))
  in
  Alcotest.(check bool) "converged" true (Network.run net = Engine.Quiescent);
  Alcotest.(check int) "three downs, three ups" 6 (Injector.injected inj);
  Alcotest.(check bool) "link finishes up" true (Network.link_is_up net 2 3);
  Alcotest.(check (list bool)) "routing recovered" [ true; true; true; true ]
    (reachability net)

let test_stop_cancels_pending () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  let inj =
    Injector.arm ~rng:(rng ()) net
      (Plan.fail ~at:50.0 (Plan.link (asn 2) (asn 3)))
  in
  Engine.schedule_at (Network.engine net) ~time:10.0 (fun _ ->
      Injector.stop inj);
  ignore (Network.run net);
  Alcotest.(check int) "nothing applied" 0 (Injector.injected inj);
  Alcotest.(check bool) "link never cut" true (Network.link_is_up net 2 3);
  Alcotest.(check (list bool)) "routing untouched" [ true; true; true; true ]
    (reachability net)

let test_empty_plan_is_noop () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  let inj = Injector.arm ~rng:(rng ()) net Plan.empty in
  Alcotest.(check bool) "converged" true (Network.run net = Engine.Quiescent);
  Alcotest.(check int) "nothing injected" 0 (Injector.injected inj);
  Alcotest.(check (list bool)) "full reachability" [ true; true; true; true ]
    (reachability net)

(* ---------------------------- determinism ------------------------------ *)

let churn_run seed =
  let g =
    Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 1); (2, 4) ]
  in
  let metrics = Obs.Registry.create () in
  let net =
    Network.make ~config:Network.Config.(default |> with_metrics metrics) g
  in
  Network.originate ~at:0.0 net 1 victim;
  let inj =
    Injector.arm ~metrics ~rng:(Rng.create ~seed) net
      (Plan.churn ~start:5.0 ~rate:0.2 ~mean_downtime:10.0 ~until:80.0
         (Plan.link_targets g))
  in
  let outcome = Network.run net in
  ( outcome,
    Injector.injected inj,
    Engine.now (Network.engine net),
    Network.total_updates_sent net,
    List.map (fun a -> Network.best_route net a victim <> None) [ 1; 2; 3; 4 ] )

let test_churn_deterministic () =
  let o1, n1, t1, u1, r1 = churn_run 0xC0FFEEL in
  let o2, n2, t2, u2, r2 = churn_run 0xC0FFEEL in
  Alcotest.(check bool) "both converged" true
    (o1 = Engine.Quiescent && o2 = Engine.Quiescent);
  Alcotest.(check bool) "faults fired" true (n1 > 0);
  Alcotest.(check int) "same fault count" n1 n2;
  Alcotest.(check (float 0.0)) "same convergence time" t1 t2;
  Alcotest.(check int) "same update count" u1 u2;
  Alcotest.(check (list bool)) "same final routes" r1 r2

(* --------------------------- impairments ------------------------------- *)

let test_total_loss_blocks_link () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  ignore
    (Injector.arm ~rng:(rng ()) net
       (Plan.impair ~loss:1.0 ~at:0.0 (asn 2) (asn 3)));
  Alcotest.(check bool) "converged" true (Network.run net = Engine.Quiescent);
  Alcotest.(check (list bool)) "route stops at the lossy link"
    [ true; true; false; false ] (reachability net)

let test_duplication_inflates_messages_only () =
  let run dup =
    let net = Network.make (line ()) in
    Network.originate ~at:0.0 net 1 victim;
    if dup then
      ignore
        (Injector.arm ~rng:(rng ()) net
           (Plan.impair ~duplicate:1.0 ~at:0.0 (asn 2) (asn 3)));
    ignore (Network.run net);
    (Network.total_updates_received net, reachability net)
  in
  let clean_received, clean_routes = run false in
  let dup_received, dup_routes = run true in
  Alcotest.(check bool) "duplicates received" true
    (dup_received > clean_received);
  Alcotest.(check (list bool)) "routing identical" clean_routes dup_routes

let test_jitter_still_converges () =
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 1) ] in
  let net = Network.make g in
  Network.originate ~at:0.0 net 1 victim;
  let plan =
    Plan.all
      (List.map
         (fun (a, b) -> Plan.impair ~jitter:5.0 ~at:0.0 a b)
         (Topology.As_graph.edges g))
  in
  ignore (Injector.arm ~rng:(rng ()) net plan);
  Alcotest.(check bool) "converged" true (Network.run net = Engine.Quiescent);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d reached" a)
        true
        (Network.best_route net a victim <> None))
    [ 1; 2; 3; 4 ]

let test_impairment_with_duration_expires () =
  (* while the middle link drops everything the far side is dark; once the
     impairment expires a later announcement gets through *)
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  Network.withdraw ~at:30.0 net 1 victim;
  Network.originate ~at:200.0 net 1 victim;
  ignore
    (Injector.arm ~rng:(rng ()) net
       (Plan.impair ~duration:100.0 ~loss:1.0 ~at:0.0 (asn 2) (asn 3)));
  ignore (Network.run net);
  Alcotest.(check bool) "impairment removed" true
    (Network.link_impairment net 2 3 = None);
  Alcotest.(check (list bool)) "second announcement delivered"
    [ true; true; true; true ] (reachability net)

(* --------------------- robustness experiment smoke --------------------- *)

let test_every_path_blocking_smoke () =
  let topology = Topology.Paper_topologies.topology_25 () in
  let points =
    Experiments.Robustness.partition_study ~seed:7L ~runs:3 ~topology ()
  in
  Alcotest.(check bool) "sweep produced points" true (List.length points > 1);
  Alcotest.(check bool) "Section 4.1 claim holds" true
    (Experiments.Robustness.every_path_blocking_holds points);
  (* with zero links cut nothing is partitioned and detection is total *)
  match points with
  | { Experiments.Robustness.links_cut = 0; runs; partitioned_runs;
      detected_reachable; _ } :: _ ->
    Alcotest.(check int) "no partition at zero cuts" 0 partitioned_runs;
    Alcotest.(check int) "all runs detect at zero cuts" runs detected_reachable
  | _ -> Alcotest.fail "first point should be links_cut = 0"

let () =
  Alcotest.run "faults"
    [
      ( "fault plan",
        [
          Alcotest.test_case "self loop rejected" `Quick test_plan_rejects_self_loop;
          Alcotest.test_case "bad times rejected" `Quick test_plan_rejects_bad_times;
          Alcotest.test_case "bad flap rejected" `Quick test_plan_rejects_bad_flap;
          Alcotest.test_case "bad churn rejected" `Quick test_plan_rejects_bad_churn;
          Alcotest.test_case "bad impairment rejected" `Quick
            test_plan_rejects_bad_impairment;
          Alcotest.test_case "composition" `Quick test_plan_composition;
          Alcotest.test_case "graph target pools" `Quick
            test_plan_graph_target_pools;
        ] );
      ( "injector",
        [
          Alcotest.test_case "arm validates targets" `Quick
            test_arm_validates_targets;
          Alcotest.test_case "one-shot matches direct call" `Quick
            test_one_shot_matches_direct_call;
          Alcotest.test_case "timed failure recovers" `Quick
            test_fail_with_duration_recovers;
          Alcotest.test_case "router crash and restart" `Quick
            test_router_crash_and_restart;
          Alcotest.test_case "router crash forever" `Quick
            test_router_crash_forever;
          Alcotest.test_case "flap cycle count" `Quick test_flap_cycle_count;
          Alcotest.test_case "stop cancels pending faults" `Quick
            test_stop_cancels_pending;
          Alcotest.test_case "empty plan is a no-op" `Quick
            test_empty_plan_is_noop;
        ] );
      ( "determinism",
        [ Alcotest.test_case "churn reproducible from seed" `Quick
            test_churn_deterministic ] );
      ( "impairments",
        [
          Alcotest.test_case "total loss blocks a link" `Quick
            test_total_loss_blocks_link;
          Alcotest.test_case "duplication inflates messages only" `Quick
            test_duplication_inflates_messages_only;
          Alcotest.test_case "jitter still converges" `Quick
            test_jitter_still_converges;
          Alcotest.test_case "impairment duration expires" `Quick
            test_impairment_with_duration_expires;
        ] );
      ( "robustness experiment",
        [ Alcotest.test_case "every-path-blocking smoke" `Slow
            test_every_path_blocking_smoke ] );
    ]
