(* Tests for Moas.Detector: the consistency check packaged as a router
   validator, with and without the origin-verification oracle. *)

open Net
module D = Moas.Detector
module Ov = Moas.Origin_verification

let victim = Testutil.victim
let self = Asn.make 99

let legit_list = [ 10; 20 ]
let legit_communities = Testutil.moas_communities legit_list

let valid_route ?(from = 2) ?(origin = 10) () =
  Testutil.route ~communities:legit_communities ~from [ from; origin ]

let forged_route ?(from = 3) ?(attacker = 666) () =
  Testutil.route
    ~communities:(Testutil.moas_communities (attacker :: legit_list))
    ~from [ attacker ]

let oracle_with_record () =
  let oracle = Ov.create () in
  Ov.register oracle victim (Asn.Set.of_list legit_list);
  oracle

let test_consistent_routes_pass () =
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let routes = [ valid_route ~from:2 ~origin:10 (); valid_route ~from:3 ~origin:20 () ] in
  Alcotest.(check int) "all pass" 2 (List.length (v ~now:0.0 ~prefix:victim routes));
  Alcotest.(check int) "no alarm on valid MOAS" 0 (D.alarm_count d)

let test_conflict_alarms () =
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let routes = [ valid_route (); forged_route () ] in
  ignore (v ~now:5.0 ~prefix:victim routes);
  Alcotest.(check int) "one alarm" 1 (D.alarm_count d);
  match D.alarms d with
  | [ alarm ] ->
    Alcotest.check Testutil.prefix_testable "alarm prefix" victim
      alarm.Moas.Alarm.prefix;
    Alcotest.(check (float 1e-9)) "alarm time" 5.0 alarm.Moas.Alarm.time;
    Alcotest.(check int) "two conflicting lists" 2
      (List.length alarm.Moas.Alarm.conflicting_lists)
  | _ -> Alcotest.fail "expected exactly one alarm"

let test_detect_only_does_not_filter () =
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let routes = [ valid_route (); forged_route () ] in
  Alcotest.(check int) "without oracle nothing is removed" 2
    (List.length (v ~now:0.0 ~prefix:victim routes))

let test_oracle_filters_forged () =
  let oracle = oracle_with_record () in
  let d = D.create ~backend:(D.Oracle oracle) ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let kept = v ~now:0.0 ~prefix:victim [ valid_route (); forged_route () ] in
  Alcotest.(check int) "only the valid route survives" 1 (List.length kept);
  List.iter
    (fun r ->
      Alcotest.(check bool) "surviving origin is entitled" true
        (List.mem (Asn.to_int (Bgp.Route.origin_as ~self r)) legit_list))
    kept;
  Alcotest.(check int) "oracle was consulted once" 1 (Ov.query_count oracle)

let test_verdict_is_sticky () =
  let oracle = oracle_with_record () in
  let d = D.create ~backend:(D.Oracle oracle) ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  ignore (v ~now:0.0 ~prefix:victim [ valid_route (); forged_route () ]);
  (* later the valid route disappears: the forged one must STILL be
     rejected, even though alone it looks consistent *)
  let kept = v ~now:1.0 ~prefix:victim [ forged_route () ] in
  Alcotest.(check int) "remembered verdict still filters" 0 (List.length kept);
  Alcotest.(check int) "no extra oracle query" 1 (Ov.query_count oracle)

let test_no_record_fails_open () =
  let oracle = Ov.create () in
  (* no MOASRR record for the prefix *)
  let d = D.create ~backend:(D.Oracle oracle) ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let kept = v ~now:0.0 ~prefix:victim [ valid_route (); forged_route () ] in
  Alcotest.(check int) "cannot verify: keep everything" 2 (List.length kept);
  Alcotest.(check int) "alarm still raised" 1 (D.alarm_count d)

let test_alarm_dedup () =
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let routes = [ valid_route (); forged_route () ] in
  ignore (v ~now:0.0 ~prefix:victim routes);
  ignore (v ~now:1.0 ~prefix:victim routes);
  ignore (v ~now:2.0 ~prefix:victim routes);
  Alcotest.(check int) "same conflict alarms once" 1 (D.alarm_count d);
  (* a different forged list is a new conflict *)
  ignore (v ~now:3.0 ~prefix:victim [ valid_route (); forged_route ~attacker:667 () ]);
  Alcotest.(check int) "new conflict, new alarm" 2 (D.alarm_count d)

let test_self_inconsistent_rejected_locally () =
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  (* forged list omits the attacker's own origin: rejected without any
     second route and without an oracle *)
  let sneaky =
    Testutil.route ~communities:legit_communities ~from:3 [ 666 ]
  in
  let kept = v ~now:0.0 ~prefix:victim [ sneaky ] in
  Alcotest.(check int) "locally rejected" 0 (List.length kept)

let test_self_consistency_check_optional () =
  let d = D.create ~check_self_consistency:false ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let sneaky = Testutil.route ~communities:legit_communities ~from:3 [ 666 ] in
  Alcotest.(check int) "kept when the check is off" 1
    (List.length (v ~now:0.0 ~prefix:victim [ sneaky ]))

let test_missing_list_conflicts_with_list () =
  (* Section 4.3: a route whose list was dropped counts as {origin}; if the
     origin is legitimate the implicit list {10} still disagrees with
     {10,20}, raising a (false) alarm - but never hiding a real conflict *)
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  let stripped = Testutil.route ~from:4 [ 4; 10 ] in
  ignore (v ~now:0.0 ~prefix:victim [ valid_route (); stripped ]);
  Alcotest.(check int) "dropped list raises an alarm" 1 (D.alarm_count d)

let test_on_alarm_callback () =
  let fired = ref [] in
  let d = D.create ~on_alarm:(fun a -> fired := a :: !fired) ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  ignore (v ~now:0.0 ~prefix:victim [ valid_route (); forged_route () ]);
  Alcotest.(check int) "callback fired" 1 (List.length !fired)

let test_reset () =
  let d = D.create ~self () in
  let v = Bgp.Router.filter (D.validator d) in
  ignore (v ~now:0.0 ~prefix:victim [ valid_route (); forged_route () ]);
  D.reset d;
  Alcotest.(check int) "alarms cleared" 0 (D.alarm_count d);
  ignore (v ~now:1.0 ~prefix:victim [ valid_route (); forged_route () ]);
  Alcotest.(check int) "conflict alarms again after reset" 1 (D.alarm_count d)

(* property: with an oracle record, the surviving set never contains an
   unentitled origin once any conflict has been observed *)
let prop_soundness =
  Testutil.qtest ~count:100 "post-conflict filtering keeps only entitled origins"
    QCheck2.Gen.(list_size (int_range 1 6) (pair (int_range 1 200) bool))
    (fun specs ->
      let oracle = oracle_with_record () in
      let d = D.create ~backend:(D.Oracle oracle) ~self () in
      let v = Bgp.Router.filter (D.validator d) in
      let routes =
        List.mapi
          (fun i (asn, is_valid) ->
            if is_valid then valid_route ~from:(i + 1) ~origin:(if asn mod 2 = 0 then 10 else 20) ()
            else forged_route ~from:(i + 1) ~attacker:(300 + asn) ())
          specs
      in
      (* a conflict exists when the carried lists disagree; a set of
         identically-forged routes with no valid route in sight is
         undetectable by design (the paper's residual case) *)
      let distinct_lists =
        List.map (Moas.Moas_list.effective ~self) routes
        |> List.sort_uniq Asn.Set.compare
      in
      let kept = v ~now:0.0 ~prefix:victim routes in
      if List.length distinct_lists > 1 then
        List.for_all
          (fun r -> List.mem (Asn.to_int (Bgp.Route.origin_as ~self r)) legit_list)
          kept
      else List.length kept = List.length routes)

let () =
  Alcotest.run "detector"
    [
      ( "detection",
        [
          Alcotest.test_case "valid MOAS passes" `Quick test_consistent_routes_pass;
          Alcotest.test_case "conflict alarms" `Quick test_conflict_alarms;
          Alcotest.test_case "detect-only mode" `Quick test_detect_only_does_not_filter;
          Alcotest.test_case "oracle filters" `Quick test_oracle_filters_forged;
          Alcotest.test_case "verdict sticky" `Quick test_verdict_is_sticky;
          Alcotest.test_case "no record fails open" `Quick test_no_record_fails_open;
          Alcotest.test_case "alarm dedup" `Quick test_alarm_dedup;
        ] );
      ( "local checks",
        [
          Alcotest.test_case "self-inconsistent rejected" `Quick
            test_self_inconsistent_rejected_locally;
          Alcotest.test_case "check can be disabled" `Quick
            test_self_consistency_check_optional;
          Alcotest.test_case "dropped list raises alarm" `Quick
            test_missing_list_conflicts_with_list;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "on_alarm callback" `Quick test_on_alarm_callback;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ("properties", [ prop_soundness ]);
    ]
