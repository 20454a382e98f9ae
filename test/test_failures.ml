(* Tests for session failure and recovery (Router.peer_down/peer_up and
   link cuts armed through Fault_plan and Injector), plus failure injection
   during an attack. *)

open Net
module Network = Bgp.Network
module Router = Bgp.Router
module Plan = Faults.Fault_plan

(* cut the link a-b at [at], repairing it after [duration] when given *)
let cut ?duration ~at net a b =
  ignore
    (Faults.Injector.arm ~rng:(Mutil.Rng.create ~seed:1L) net
       (Plan.fail ?duration ~at (Plan.link (Asn.make a) (Asn.make b))))

let victim = Testutil.victim

let test_peer_down_flushes () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 1) in
  Router.set_transport router
    { Router.send = (fun ~from:_ ~peer:_ ~slot:_ _ -> ());
    schedule = (fun ~delay:_ _ -> ()) }
    ~index:0;
  Router.handle_update router ~clock:(ref 1.0)
    (Bgp.Update.announce ~sender:(Asn.make 2) (Testutil.route ~from:2 [ 2; 10 ]));
  Alcotest.(check bool) "route installed" true (Router.best router victim <> None);
  Router.peer_down router ~now:2.0 (Asn.make 2);
  Alcotest.(check bool) "flushed with session" true (Router.best router victim = None);
  Alcotest.(check (list int)) "peer removed" [ 3 ]
    (List.map Asn.to_int (Router.peers router))

let test_peer_up_readvertises () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 1) in
  let sent = ref [] in
  Router.set_transport router
    { Router.send = (fun ~from:_ ~peer ~slot:_ update -> sent := (peer, update) :: !sent);
    schedule = (fun ~delay:_ _ -> ()) }
    ~index:0;
  (* the session with AS 3 is down when the route is originated *)
  Router.peer_down router ~now:0.0 (Asn.make 3);
  Router.originate router ~now:0.0 (Bgp.Route.originate ~self:(Asn.make 1) victim);
  sent := [];
  Router.peer_up router ~now:1.0 (Asn.make 3);
  (match !sent with
  | [ (peer, { Bgp.Update.payload = Bgp.Update.Announce _; _ }) ] ->
    Alcotest.(check int) "table exchange to the new peer" 3 (Asn.to_int peer)
  | _ -> Alcotest.fail "expected one announcement to the new peer");
  (* idempotent: bringing the same session up again changes nothing *)
  sent := [];
  Router.peer_up router ~now:2.0 (Asn.make 3);
  Alcotest.(check int) "no duplicate exchange" 0 (List.length !sent)

let line () = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ]

let test_fail_link_loses_reachability () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  cut ~at:50.0 net 2 3;
  Alcotest.(check bool) "converged" true (Network.run net = Sim.Engine.Quiescent);
  Alcotest.(check bool) "near side keeps the route" true
    (Network.best_route net 2 victim <> None);
  Alcotest.(check bool) "far side loses it" true
    (Network.best_route net 3 victim = None);
  Alcotest.(check bool) "stub behind the cut loses it" true
    (Network.best_route net 4 victim = None);
  Alcotest.(check bool) "link reported down" false (Network.link_is_up net 2 3)

let test_restore_link_recovers () =
  let net = Network.make (line ()) in
  Network.originate ~at:0.0 net 1 victim;
  cut ~duration:50.0 ~at:50.0 net 2 3;
  ignore (Network.run net);
  List.iter
    (fun asn ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d recovered" asn)
        true
        (Network.best_route net asn victim <> None))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "link reported up" true (Network.link_is_up net 2 3)

let test_fail_link_reroutes () =
  (* a ring: losing one link just lengthens the path *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 1) ] in
  let net = Network.make g in
  Network.originate ~at:0.0 net 1 victim;
  cut ~at:50.0 net 1 2;
  ignore (Network.run net);
  (match Network.best_route net 2 victim with
  | Some route ->
    Alcotest.(check int) "AS2 reroutes the long way" 3
      (Bgp.As_path.length route.Bgp.Route.as_path)
  | None -> Alcotest.fail "AS2 should reroute");
  Alcotest.(check bool) "AS3 unaffected" true (Network.best_route net 3 victim <> None)

let test_fail_unknown_link_rejected () =
  let net = Network.make (line ()) in
  Alcotest.check_raises "non-peering rejected"
    (Invalid_argument "Network: AS1 and AS3 do not peer") (fun () ->
      Network.fail_link_now net 1 3)

let test_attack_during_partition () =
  (* the origin's only link fails while an attacker is active: the cut-off
     side has no valid route to conflict with, so even full deployment
     cannot protect it - the paper's single-path caveat (Section 4.1) *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let oracle = Moas.Origin_verification.create () in
  Moas.Origin_verification.register oracle victim (Asn.Set.singleton (Asn.make 1));
  let validator_of asn =
    if Asn.equal asn (Asn.make 5) then None
    else
      Some (Moas.Detector.validator (Moas.Detector.create ~backend:(Moas.Detector.Oracle oracle) ~self:asn ()))
  in
  let net = Network.make ~config:Network.Config.(default |> with_validator_of validator_of) g in
  Network.originate ~at:0.0 net 1 victim;
  cut ~at:50.0 net 1 2;
  (* attacker AS5 announces after the partition *)
  Network.originate ~at:100.0 net 5 victim;
  ignore (Network.run net);
  (* everyone beyond the cut now only hears the attacker *)
  List.iter
    (fun asn ->
      Alcotest.(check (option int))
        (Printf.sprintf "AS%d adopts the only available (bogus) route" asn)
        (Some 5)
        (Option.map Asn.to_int (Network.best_origin net asn victim)))
    [ 2; 3; 4 ]

let test_recovery_exposes_conflict () =
  (* continuing the scenario: when the origin's link is restored, capable
     ASes see the conflict and flip back to the valid route *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let oracle = Moas.Origin_verification.create () in
  Moas.Origin_verification.register oracle victim (Asn.Set.singleton (Asn.make 1));
  let detectors = Hashtbl.create 8 in
  let validator_of asn =
    if Asn.equal asn (Asn.make 5) then None
    else begin
      let d = Moas.Detector.create ~backend:(Moas.Detector.Oracle oracle) ~self:asn () in
      Hashtbl.replace detectors asn d;
      Some (Moas.Detector.validator d)
    end
  in
  let net = Network.make ~config:Network.Config.(default |> with_validator_of validator_of) g in
  Network.originate ~at:0.0 net 1 victim;
  cut ~duration:150.0 ~at:50.0 net 1 2;
  Network.originate ~at:100.0 net 5 victim;
  ignore (Network.run net);
  List.iter
    (fun asn ->
      Alcotest.(check (option int))
        (Printf.sprintf "AS%d back on the valid route" asn)
        (Some 1)
        (Option.map Asn.to_int (Network.best_origin net asn victim)))
    [ 2; 3; 4 ];
  let alarms =
    Hashtbl.fold (fun _ d acc -> acc + Moas.Detector.alarm_count d) detectors 0
  in
  Alcotest.(check bool) "conflicts were reported" true (alarms > 0)

let () =
  Alcotest.run "failures"
    [
      ( "router sessions",
        [
          Alcotest.test_case "peer_down flushes" `Quick test_peer_down_flushes;
          Alcotest.test_case "peer_up re-advertises" `Quick test_peer_up_readvertises;
        ] );
      ( "network links",
        [
          Alcotest.test_case "failure loses reachability" `Quick
            test_fail_link_loses_reachability;
          Alcotest.test_case "restore recovers" `Quick test_restore_link_recovers;
          Alcotest.test_case "failure reroutes" `Quick test_fail_link_reroutes;
          Alcotest.test_case "unknown link rejected" `Quick
            test_fail_unknown_link_rejected;
        ] );
      ( "failure + attack",
        [
          Alcotest.test_case "partition defeats detection" `Quick
            test_attack_during_partition;
          Alcotest.test_case "recovery exposes the conflict" `Quick
            test_recovery_exposes_conflict;
        ] );
    ]
