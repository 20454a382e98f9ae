(* Tests for Moas.Moas_list, Moas.Alarm and Moas.Origin_verification. *)

open Net
module Ml = Moas.Moas_list
module Ov = Moas.Origin_verification

let test_encode_decode () =
  let ases = Asn.Set.of_list [ 1; 2; 226 ] in
  Alcotest.check Testutil.asn_set_testable "roundtrip" ases
    (Option.get (Ml.decode (Ml.encode ases)));
  Alcotest.(check bool) "empty set encodes to nothing" true
    (Ml.decode (Ml.encode Asn.Set.empty) = None)

let test_decode_ignores_other_communities () =
  let communities =
    Bgp.Community.Set.of_list
      [
        Bgp.Community.make (Asn.make 1) Ml.ml_val;
        Bgp.Community.make (Asn.make 7) 42;  (* unrelated community *)
      ]
  in
  Alcotest.check Testutil.asn_set_testable "only MLVal counts"
    (Asn.Set.singleton 1)
    (Option.get (Ml.decode communities))

let test_strip_preserves_other_communities () =
  let other = Bgp.Community.make (Asn.make 7) 42 in
  let communities =
    Bgp.Community.Set.add other (Ml.encode (Asn.Set.of_list [ 1; 2 ]))
  in
  let stripped = Ml.strip communities in
  Alcotest.(check bool) "list gone" true (Ml.decode stripped = None);
  Alcotest.(check bool) "other community kept" true
    (Bgp.Community.Set.mem other stripped)

let test_attach_replaces () =
  let c1 = Ml.encode (Asn.Set.of_list [ 1; 2 ]) in
  let c2 = Ml.attach (Asn.Set.of_list [ 3 ]) c1 in
  Alcotest.check Testutil.asn_set_testable "previous list replaced"
    (Asn.Set.singleton 3)
    (Option.get (Ml.decode c2))

let test_effective () =
  let self = Asn.make 1 in
  let with_list =
    Testutil.route ~communities:(Testutil.moas_communities [ 4; 226 ]) ~from:2
      [ 2; 4 ]
  in
  Alcotest.check Testutil.asn_set_testable "carried list used"
    (Asn.Set.of_list [ 4; 226 ])
    (Ml.effective ~self with_list);
  (* footnote 3: a bare route implies the singleton of its origin *)
  let bare = Testutil.route ~from:2 [ 2; 4 ] in
  Alcotest.check Testutil.asn_set_testable "implicit {origin}"
    (Asn.Set.singleton 4)
    (Ml.effective ~self bare);
  let originated = Bgp.Route.originate ~self Testutil.victim in
  Alcotest.check Testutil.asn_set_testable "originated implies {self}"
    (Asn.Set.singleton 1)
    (Ml.effective ~self originated)

let test_consistency () =
  let a = Asn.Set.of_list [ 1; 2 ] in
  let b = Asn.Set.of_list [ 2; 1 ] in
  let c = Asn.Set.of_list [ 1; 2; 3 ] in
  Alcotest.(check bool) "order irrelevant" true (Ml.consistent a b);
  Alcotest.(check bool) "superset differs" false (Ml.consistent a c);
  Alcotest.(check bool) "all consistent (dup)" true (Ml.all_consistent [ a; b ]);
  Alcotest.(check bool) "conflict found" false (Ml.all_consistent [ a; b; c ]);
  Alcotest.(check bool) "vacuous" true (Ml.all_consistent []);
  Alcotest.(check bool) "single" true (Ml.all_consistent [ c ])

let test_self_consistent () =
  let self = Asn.make 9 in
  let good =
    Testutil.route ~communities:(Testutil.moas_communities [ 4; 226 ]) ~from:2
      [ 2; 4 ]
  in
  Alcotest.(check bool) "origin in list" true (Ml.self_consistent ~self good);
  (* an attacker whose forged list omits its own origin is caught locally *)
  let bad =
    Testutil.route ~communities:(Testutil.moas_communities [ 4; 226 ]) ~from:2
      [ 2; 666 ]
  in
  Alcotest.(check bool) "origin missing from list" false
    (Ml.self_consistent ~self bad);
  let bare = Testutil.route ~from:2 [ 2; 666 ] in
  Alcotest.(check bool) "no list is vacuously self-consistent" true
    (Ml.self_consistent ~self bare)

let test_alarm_signature_dedup () =
  let mk lists =
    Moas.Alarm.make ~observer:(Asn.make 1) ~prefix:Testutil.victim ~time:1.0
      ~conflicting_lists:lists ~origins_seen:Asn.Set.empty
  in
  let a = mk [ Asn.Set.of_list [ 1; 2 ]; Asn.Set.singleton 3 ] in
  let b = mk [ Asn.Set.singleton 3; Asn.Set.of_list [ 1; 2 ] ] in
  Alcotest.(check string) "signature is order independent"
    (Moas.Alarm.signature a) (Moas.Alarm.signature b);
  let c = mk [ Asn.Set.singleton 4; Asn.Set.of_list [ 1; 2 ] ] in
  Alcotest.(check bool) "different conflict differs" true
    (Moas.Alarm.signature a <> Moas.Alarm.signature c)

let test_oracle () =
  let oracle = Ov.create () in
  Alcotest.(check (option Testutil.asn_set_testable)) "unknown prefix" None
    (Ov.query oracle Testutil.victim);
  Alcotest.(check int) "query counted" 1 (Ov.query_count oracle);
  Ov.register oracle Testutil.victim (Asn.Set.of_list [ 1; 2 ]);
  Alcotest.(check bool) "entitled" true (Ov.entitled oracle Testutil.victim (Asn.make 1));
  Alcotest.(check bool) "not entitled" false
    (Ov.entitled oracle Testutil.victim (Asn.make 3));
  Alcotest.(check int) "three queries now" 3 (Ov.query_count oracle)

let test_deployment () =
  let all = Asn.Set.of_list (List.init 40 (fun i -> i + 1)) in
  let rng = Mutil.Rng.of_int 5 in
  Alcotest.(check int) "disabled = nobody" 0
    (Asn.Set.cardinal (Moas.Deployment.capable_set rng all Moas.Deployment.Disabled));
  Alcotest.(check int) "full = everybody" 40
    (Asn.Set.cardinal (Moas.Deployment.capable_set rng all Moas.Deployment.Full));
  let half = Moas.Deployment.capable_set rng all (Moas.Deployment.Fraction 0.5) in
  Alcotest.(check int) "half = 20 ASes" 20 (Asn.Set.cardinal half);
  Alcotest.(check bool) "subset of universe" true (Asn.Set.subset half all);
  let explicit =
    Moas.Deployment.capable_set rng all
      (Moas.Deployment.Exactly (Asn.Set.of_list [ 1; 2; 999 ]))
  in
  Alcotest.check Testutil.asn_set_testable "explicit intersected"
    (Asn.Set.of_list [ 1; 2 ])
    explicit

let prop_roundtrip =
  Testutil.qtest "encode/decode roundtrip for non-empty sets"
    Testutil.asn_set_gen
    (fun ases ->
      QCheck2.assume (not (Asn.Set.is_empty ases));
      match Ml.decode (Ml.encode ases) with
      | Some got -> Asn.Set.equal got ases
      | None -> false)

let prop_consistency_is_equality =
  Testutil.qtest "consistency = set equality"
    QCheck2.Gen.(pair Testutil.asn_set_gen Testutil.asn_set_gen)
    (fun (a, b) -> Ml.consistent a b = Asn.Set.equal a b)

let () =
  Alcotest.run "moas_list"
    [
      ( "codec",
        [
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "other communities ignored" `Quick
            test_decode_ignores_other_communities;
          Alcotest.test_case "strip" `Quick test_strip_preserves_other_communities;
          Alcotest.test_case "attach replaces" `Quick test_attach_replaces;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "effective list" `Quick test_effective;
          Alcotest.test_case "consistency" `Quick test_consistency;
          Alcotest.test_case "self-consistency" `Quick test_self_consistent;
        ] );
      ("alarm", [ Alcotest.test_case "signatures" `Quick test_alarm_signature_dedup ]);
      ("oracle", [ Alcotest.test_case "registry + accounting" `Quick test_oracle ]);
      ("deployment", [ Alcotest.test_case "capable sets" `Quick test_deployment ]);
      ("properties", [ prop_roundtrip; prop_consistency_is_equality ]);
    ]
