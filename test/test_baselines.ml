(* Tests for the related-work baselines (S-BGP-style origin/path
   authentication and IRR filtering) and the head-to-head comparison. *)

open Net
module OA = Baselines.Origin_auth
module Irr = Baselines.Irr_filter
module Cmp = Baselines.Comparison

let victim = Testutil.victim

let valid_route = Testutil.route ~from:2 [ 2; 10 ]
let forged_route = Testutil.route ~from:3 [ 666 ]

let impersonated_route =
  Testutil.route
    ~communities:(Bgp.Community.Set.singleton Attack.Attacker.impersonation_marker)
    ~from:3 [ 3; 10 ]

let test_origin_auth_blocks_false_origin () =
  let pki = OA.create () in
  OA.register pki victim (Asn.Set.singleton (Asn.make 10));
  let v = Bgp.Router.filter (OA.validator pki ~self:(Asn.make 1)) in
  let kept = v ~now:0.0 ~prefix:victim [ valid_route; forged_route ] in
  Alcotest.(check int) "forged origin rejected" 1 (List.length kept);
  Alcotest.(check int) "every route was verified" 2 (OA.verifications pki)

let test_origin_auth_blocks_impersonation () =
  let pki = OA.create () in
  OA.register pki victim (Asn.Set.singleton (Asn.make 10));
  let v = Bgp.Router.filter (OA.validator pki ~self:(Asn.make 1)) in
  (* the impersonated route claims the right origin but its signatures
     (marker) do not verify *)
  let kept = v ~now:0.0 ~prefix:victim [ valid_route; impersonated_route ] in
  Alcotest.(check int) "impersonation rejected with intact keys" 1
    (List.length kept)

let test_origin_auth_compromised_key () =
  let pki = OA.create ~compromised_keys:(Asn.Set.singleton (Asn.make 10)) () in
  OA.register pki victim (Asn.Set.singleton (Asn.make 10));
  let v = Bgp.Router.filter (OA.validator pki ~self:(Asn.make 1)) in
  let kept = v ~now:0.0 ~prefix:victim [ valid_route; impersonated_route ] in
  Alcotest.(check int) "forgery verifies with a stolen key" 2 (List.length kept)

let test_origin_auth_fails_open_without_attestation () =
  let pki = OA.create () in
  let v = Bgp.Router.filter (OA.validator pki ~self:(Asn.make 1)) in
  Alcotest.(check int) "unknown prefix passes" 2
    (List.length (v ~now:0.0 ~prefix:victim [ valid_route; forged_route ]))

let test_irr_records () =
  let r = Irr.create () in
  Irr.register r victim (Asn.make 10);
  Alcotest.(check bool) "record found" true (Irr.holds r victim (Asn.make 10));
  Alcotest.(check bool) "other origin absent" false (Irr.holds r victim (Asn.make 11));
  Irr.register_set r victim (Asn.Set.of_list [ 11; 12 ]);
  Alcotest.(check int) "three records" 3 (Irr.record_count r);
  Irr.drop_records (Mutil.Rng.of_int 1) r ~staleness:1.0;
  Alcotest.(check int) "all dropped at staleness 1" 0 (Irr.record_count r)

let test_irr_policy_filters_customers_only () =
  (* star: provider 10 with customers 1..4 (degree heuristic) *)
  let g = Topology.As_graph.of_edges [ (1, 10); (2, 10); (3, 10); (4, 10) ] in
  let rels = Topology.Relationships.infer_by_degree g in
  let registry = Irr.create () in
  Irr.register registry victim (Asn.make 1);
  let policy = Irr.policy registry ~relationships:rels ~self:(Asn.make 10) in
  (* a registered customer announcement passes *)
  Alcotest.(check bool) "registered customer passes" true
    (policy.Bgp.Policy.import ~peer:(Asn.make 1) (Testutil.route ~from:1 [ 1 ])
    <> None);
  (* an unregistered customer announcement is filtered *)
  Alcotest.(check bool) "unregistered customer filtered" true
    (policy.Bgp.Policy.import ~peer:(Asn.make 2) (Testutil.route ~from:2 [ 2 ])
    = None);
  (* the customer's view of the provider: routes FROM providers pass *)
  let customer_policy = Irr.policy registry ~relationships:rels ~self:(Asn.make 1) in
  Alcotest.(check bool) "provider routes pass unfiltered" true
    (customer_policy.Bgp.Policy.import ~peer:(Asn.make 10)
       (Testutil.route ~from:10 [ 10; 666 ])
    <> None)

let test_head_to_head_story () =
  let t = Topology.Paper_topologies.topology_46 () in
  let results = Cmp.head_to_head ~runs:4 ~topology:t () in
  let find defense attack =
    List.find
      (fun r ->
        Cmp.defense_to_string r.Cmp.defense = Cmp.defense_to_string defense
        && r.Cmp.attack = attack)
      results
  in
  let adoption d a = (find d a).Cmp.mean_adopting in
  (* the paper's mechanism crushes the false-origin attack *)
  Alcotest.(check bool) "MOAS << normal on false origin" true
    (adoption Cmp.Moas_full Cmp.False_origin
    < adoption Cmp.No_defense Cmp.False_origin /. 5.0);
  (* intact-key S-BGP blocks everything *)
  Alcotest.(check (float 0.0)) "S-BGP blocks false origin" 0.0
    (adoption (Cmp.Sbgp Asn.Set.empty) Cmp.False_origin);
  Alcotest.(check (float 0.0)) "S-BGP blocks impersonation" 0.0
    (adoption (Cmp.Sbgp Asn.Set.empty) Cmp.Impersonation);
  (* ... but one compromised key lets path forgery straight through *)
  Alcotest.(check bool) "compromised key defeats S-BGP" true
    (adoption (Cmp.Sbgp (Asn.Set.singleton (Asn.make 1))) Cmp.Impersonation
    > 0.1);
  (* MOAS admits it cannot catch path forgery (Section 4.3) *)
  Alcotest.(check (float 1e-9)) "path forgery invisible to MOAS"
    (adoption Cmp.No_defense Cmp.Impersonation)
    (adoption Cmp.Moas_full Cmp.Impersonation);
  (* IRR filtering helps but only partially *)
  Alcotest.(check bool) "IRR in between" true
    (adoption (Cmp.Irr 0.0) Cmp.False_origin
     < adoption Cmp.No_defense Cmp.False_origin
    && adoption (Cmp.Irr 0.0) Cmp.False_origin
       > adoption Cmp.Moas_full Cmp.False_origin)

let test_sbgp_fails_closed () =
  (* nodes cut off by attackers are routeless under S-BGP (fail closed) but
     adopt the bogus route under MOAS (fail open): same nodes, dual fate *)
  let t = Topology.Paper_topologies.topology_46 () in
  let results = Cmp.head_to_head ~runs:4 ~topology:t () in
  let sbgp =
    List.find
      (fun r ->
        r.Cmp.defense = Cmp.Sbgp Asn.Set.empty && r.Cmp.attack = Cmp.False_origin)
      results
  in
  let moas =
    List.find
      (fun r -> r.Cmp.defense = Cmp.Moas_full && r.Cmp.attack = Cmp.False_origin)
      results
  in
  Alcotest.(check bool) "S-BGP trades adoption for reachability loss" true
    (sbgp.Cmp.mean_valid_loss >= moas.Cmp.mean_adopting -. 1e-9)

let test_detection_latency_metric () =
  let t = Topology.Paper_topologies.topology_46 () in
  let rng = Mutil.Rng.of_int 77 in
  let scenario =
    Attack.Scenario.random rng ~graph:t.Topology.Paper_topologies.graph
      ~stub:t.Topology.Paper_topologies.stub ~n_origins:1 ~n_attackers:3
      ~deployment:Moas.Deployment.Full
  in
  let o = Testutil.run_scenario scenario in
  (match o.Attack.Scenario.detection_latency with
  | Some latency ->
    (* the first alarm fires within a couple of hops of the attack *)
    Alcotest.(check bool)
      (Printf.sprintf "latency positive and small (%.2f)" latency)
      true
      (latency > 0.0 && latency < 10.0)
  | None -> Alcotest.fail "expected a detection latency");
  Alcotest.(check bool) "convergence time after attack" true
    (o.Attack.Scenario.converged_at >= scenario.Attack.Scenario.attack_at)

let () =
  Alcotest.run "baselines"
    [
      ( "origin_auth",
        [
          Alcotest.test_case "blocks false origin" `Quick
            test_origin_auth_blocks_false_origin;
          Alcotest.test_case "blocks impersonation" `Quick
            test_origin_auth_blocks_impersonation;
          Alcotest.test_case "compromised key" `Quick test_origin_auth_compromised_key;
          Alcotest.test_case "fails open without record" `Quick
            test_origin_auth_fails_open_without_attestation;
        ] );
      ( "irr_filter",
        [
          Alcotest.test_case "records" `Quick test_irr_records;
          Alcotest.test_case "customer filtering" `Quick
            test_irr_policy_filters_customers_only;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "head-to-head story" `Slow test_head_to_head_story;
          Alcotest.test_case "fail-closed vs fail-open" `Slow test_sbgp_fails_closed;
        ] );
      ( "latency",
        [ Alcotest.test_case "detection latency" `Quick test_detection_latency_metric ] );
    ]
