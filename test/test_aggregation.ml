(* Tests for route aggregation (paper footnote 1) and its interplay with
   MOAS checking: an aggregate's AS_SET stands in for the implicit MOAS
   list of its component origins. *)

open Net
module Router = Bgp.Router
module Network = Bgp.Network

let summary = Prefix.of_string "10.0.0.0/8"
let child_a = Prefix.of_string "10.1.0.0/16"
let child_b = Prefix.of_string "10.2.0.0/16"

(* AS 2 supplies the children and AS 9 is the downstream peer: the
   transport keeps what is sent to AS 9 *)
let wire router =
  let sent = ref [] in
  Router.set_transport router
    ~send:(fun ~peer ~slot:_ update ->
      if Asn.to_int peer = 9 then sent := (peer, update) :: !sent)
    ~schedule:(fun ~delay:_ _ -> ());
  fun () ->
    let out = List.rev !sent in
    sent := [];
    out

let announce ~from ~prefix path =
  Bgp.Update.announce ~sender:(Asn.make from) (Testutil.route ~prefix ~from path)

let test_aggregate_appears_with_first_child () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 9 ]) (Asn.make 1) in
  let drain = wire router in
  Router.configure_aggregate router ~now:0.0 summary;
  Alcotest.(check bool) "no aggregate without children" true
    (Router.best router summary = None);
  Router.handle_update router ~now:1.0 (announce ~from:2 ~prefix:child_a [ 2; 5 ]);
  (match Router.best router summary with
  | Some aggregate ->
    Alcotest.check Testutil.asn_set_testable "single child: child's origins"
      (Asn.Set.singleton 5)
      (Bgp.As_path.origin_candidates aggregate.Bgp.Route.as_path)
  | None -> Alcotest.fail "aggregate expected");
  (* the aggregate is advertised alongside the child *)
  let announced_prefixes =
    List.filter_map
      (fun (_, u) ->
        match u.Bgp.Update.payload with
        | Bgp.Update.Announce r -> Some (Prefix.to_string r.Bgp.Route.prefix)
        | Bgp.Update.Withdraw _ -> None)
      (drain ())
  in
  Alcotest.(check (list string)) "child and aggregate announced"
    [ "10.0.0.0/8"; "10.1.0.0/16" ]
    (List.sort compare announced_prefixes)

let test_aggregate_combines_origins () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 9 ]) (Asn.make 1) in
  let (_ : unit -> (Asn.t * Bgp.Update.t) list) = wire router in
  Router.configure_aggregate router ~now:0.0 summary;
  Router.handle_update router ~now:1.0 (announce ~from:2 ~prefix:child_a [ 2; 5 ]);
  Router.handle_update router ~now:2.0 (announce ~from:2 ~prefix:child_b [ 2; 7 ]);
  match Router.best router summary with
  | Some aggregate ->
    Alcotest.check Testutil.asn_set_testable "AS_SET of both origins"
      (Asn.Set.of_list [ 5; 7 ])
      (Bgp.As_path.origin_candidates aggregate.Bgp.Route.as_path);
    (* the common head (AS 2) survives as a sequence *)
    Alcotest.(check bool) "common head kept" true
      (Bgp.As_path.contains aggregate.Bgp.Route.as_path (Asn.make 2))
  | None -> Alcotest.fail "aggregate expected"

let test_aggregate_disappears_with_last_child () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 9 ]) (Asn.make 1) in
  let drain = wire router in
  Router.configure_aggregate router ~now:0.0 summary;
  Router.handle_update router ~now:1.0 (announce ~from:2 ~prefix:child_a [ 2; 5 ]);
  ignore (drain ());
  Router.handle_update router ~now:2.0
    (Bgp.Update.withdraw ~sender:(Asn.make 2) child_a);
  Alcotest.(check bool) "aggregate gone" true (Router.best router summary = None);
  let withdrawn =
    List.filter
      (fun (_, u) ->
        match u.Bgp.Update.payload with
        | Bgp.Update.Withdraw _ -> true
        | Bgp.Update.Announce _ -> false)
      (drain ())
  in
  Alcotest.(check int) "child and aggregate withdrawn" 2 (List.length withdrawn)

let test_remove_aggregate () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 9 ]) (Asn.make 1) in
  let (_ : unit -> (Asn.t * Bgp.Update.t) list) = wire router in
  Router.configure_aggregate router ~now:0.0 summary;
  Router.handle_update router ~now:1.0 (announce ~from:2 ~prefix:child_a [ 2; 5 ]);
  Router.remove_aggregate router ~now:2.0 summary;
  Alcotest.(check bool) "rule removal drops the aggregate" true
    (Router.best router summary = None);
  Alcotest.(check bool) "child untouched" true
    (Router.best router child_a <> None)

let test_aggregate_moas_list_merged () =
  (* children carrying MOAS lists: the aggregate's communities merge them *)
  let router = Router.create ~peers:(Testutil.peers [ 2; 9 ]) (Asn.make 1) in
  let (_ : unit -> (Asn.t * Bgp.Update.t) list) = wire router in
  Router.configure_aggregate router ~now:0.0 summary;
  let with_list prefix origin =
    Bgp.Update.announce ~sender:(Asn.make 2)
      (Testutil.route ~prefix
         ~communities:(Testutil.moas_communities [ origin; 100 ])
         ~from:2 [ 2; origin ])
  in
  Router.handle_update router ~now:1.0 (with_list child_a 5);
  Router.handle_update router ~now:2.0 (with_list child_b 7);
  match Router.best router summary with
  | Some aggregate ->
    Alcotest.check Testutil.asn_set_testable "lists merged"
      (Asn.Set.of_list [ 5; 7; 100 ])
      (Option.get (Moas.Moas_list.decode aggregate.Bgp.Route.communities))
  | None -> Alcotest.fail "aggregate expected"

let test_detector_accepts_consistent_aggregates () =
  (* two bare aggregated routes with the same AS_SET: implicit lists agree *)
  let d = Moas.Detector.create ~self:(Asn.make 99) () in
  let v = (Moas.Detector.validator d).Bgp.Router.filter in
  let aggregated from =
    {
      Bgp.Route.prefix = summary;
      as_path =
        [ Bgp.As_path.Seq [ from ]; Bgp.As_path.Set (Asn.Set.of_list [ 5; 7 ]) ];
      origin = Bgp.Route.Igp;
      learned_from = Asn.make from;
      local_pref = 100;
      communities = Bgp.Community.Set.empty;
    }
  in
  let kept = v ~now:0.0 ~prefix:summary [ aggregated 2; aggregated 3 ] in
  Alcotest.(check int) "both kept" 2 (List.length kept);
  Alcotest.(check int) "no alarm on consistent AS_SETs" 0 (Moas.Detector.alarm_count d)

let test_detector_flags_divergent_aggregates () =
  let d = Moas.Detector.create ~self:(Asn.make 99) () in
  let v = (Moas.Detector.validator d).Bgp.Router.filter in
  let aggregated from origins =
    {
      Bgp.Route.prefix = summary;
      as_path =
        [ Bgp.As_path.Seq [ from ]; Bgp.As_path.Set (Asn.Set.of_list origins) ];
      origin = Bgp.Route.Igp;
      learned_from = Asn.make from;
      local_pref = 100;
      communities = Bgp.Community.Set.empty;
    }
  in
  ignore (v ~now:0.0 ~prefix:summary [ aggregated 2 [ 5; 7 ]; aggregated 3 [ 5; 666 ] ]);
  Alcotest.(check int) "divergent AS_SETs alarm" 1 (Moas.Detector.alarm_count d)

let test_aggregation_in_network () =
  (* AS 3 aggregates its customers' space and the summary propagates *)
  let g = Topology.As_graph.of_edges [ (1, 3); (2, 3); (3, 4) ] in
  let net = Network.make g in
  Router.configure_aggregate (Network.router net 3) ~now:0.0 summary;
  Network.originate ~at:1.0 net 1 child_a;
  Network.originate ~at:1.0 net 2 child_b;
  Alcotest.(check bool) "converged" true (Network.run net = Sim.Engine.Quiescent);
  match Network.best_route net 4 summary with
  | Some route ->
    Alcotest.check Testutil.asn_set_testable "AS4 sees the aggregate's origins"
      (Asn.Set.of_list [ 1; 2 ])
      (Bgp.As_path.origin_candidates route.Bgp.Route.as_path)
  | None -> Alcotest.fail "AS4 should hold the aggregate"

let () =
  Alcotest.run "aggregation"
    [
      ( "router",
        [
          Alcotest.test_case "appears with first child" `Quick
            test_aggregate_appears_with_first_child;
          Alcotest.test_case "combines origins" `Quick test_aggregate_combines_origins;
          Alcotest.test_case "disappears with last child" `Quick
            test_aggregate_disappears_with_last_child;
          Alcotest.test_case "rule removal" `Quick test_remove_aggregate;
          Alcotest.test_case "MOAS lists merged" `Quick test_aggregate_moas_list_merged;
        ] );
      ( "detector interplay",
        [
          Alcotest.test_case "consistent AS_SETs" `Quick
            test_detector_accepts_consistent_aggregates;
          Alcotest.test_case "divergent AS_SETs" `Quick
            test_detector_flags_divergent_aggregates;
        ] );
      ( "network",
        [ Alcotest.test_case "aggregate propagates" `Quick test_aggregation_in_network ] );
    ]
