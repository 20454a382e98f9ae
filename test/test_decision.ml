(* Tests for the BGP decision process, including the oldest-route rule. *)

open Net
module D = Bgp.Decision

let self = Asn.make 999

let r = Testutil.route

let test_local_pref_wins () =
  let low = r ~local_pref:50 ~from:1 [ 1; 10 ] in
  let high = r ~local_pref:200 ~from:2 [ 2; 3; 4; 5; 10 ] in
  (* higher local-pref wins despite the longer path *)
  Alcotest.check Testutil.route_testable "local pref dominates" high
    (Option.get (D.best [ low; high ]))

let test_shorter_path_wins () =
  let short = r ~from:5 [ 5; 10 ] in
  let long = r ~from:2 [ 2; 3; 10 ] in
  Alcotest.check Testutil.route_testable "shorter AS path" short
    (Option.get (D.best [ long; short ]))

let test_origin_attr_breaks_tie () =
  let igp = r ~origin:Bgp.Route.Igp ~from:5 [ 5; 10 ] in
  let egp = r ~origin:Bgp.Route.Egp ~from:2 [ 2; 10 ] in
  let incomplete = r ~origin:Bgp.Route.Incomplete ~from:1 [ 1; 10 ] in
  Alcotest.check Testutil.route_testable "IGP < EGP < INCOMPLETE" igp
    (Option.get (D.best [ incomplete; egp; igp ]))

let test_peer_tiebreak () =
  let a = r ~from:7 [ 7; 10 ] in
  let b = r ~from:3 [ 3; 10 ] in
  Alcotest.check Testutil.route_testable "lowest peer AS wins full ties" b
    (Option.get (D.best [ a; b ]))

let test_originated_beats_learned () =
  let originated = Bgp.Route.originate ~self (Testutil.victim) in
  let learned = r ~from:3 [ 3; 10 ] in
  Alcotest.check Testutil.route_testable "empty path wins" originated
    (Option.get (D.best [ learned; originated ]))

let test_best_empty () =
  Alcotest.(check bool) "no candidate" true (D.best [] = None)

let test_rank_consistent_with_best () =
  let candidates =
    [ r ~from:1 [ 1; 2; 10 ]; r ~from:2 [ 2; 10 ]; r ~from:3 [ 3; 4; 5; 10 ] ]
  in
  match D.rank candidates with
  | best :: _ ->
    Alcotest.check Testutil.route_testable "rank head = best" best
      (Option.get (D.best candidates))
  | [] -> Alcotest.fail "rank dropped candidates"

let test_incumbent_keeps_equal () =
  let incumbent = r ~from:7 [ 7; 10 ] in
  let challenger = r ~from:3 [ 3; 10 ] in
  (* same attributes; without history the lower peer would win, but the
     installed route is kept (oldest-route rule) *)
  let kept =
    D.best_with_incumbent ~incumbent:(Some incumbent)
      [ challenger; incumbent ]
  in
  Alcotest.check Testutil.route_testable "incumbent retained on tie" incumbent
    (Option.get kept)

let test_incumbent_loses_to_strictly_better () =
  let incumbent = r ~from:7 [ 7; 6; 10 ] in
  let challenger = r ~from:3 [ 3; 10 ] in
  let chosen =
    D.best_with_incumbent ~incumbent:(Some incumbent)
      [ challenger; incumbent ]
  in
  Alcotest.check Testutil.route_testable "strictly shorter path replaces"
    challenger (Option.get chosen)

let test_incumbent_gone () =
  let incumbent = r ~from:7 [ 7; 10 ] in
  let challenger = r ~from:3 [ 3; 9; 10 ] in
  (* the incumbent is no longer a candidate: plain selection applies *)
  let chosen =
    D.best_with_incumbent ~incumbent:(Some incumbent) [ challenger ]
  in
  Alcotest.check Testutil.route_testable "falls back to best" challenger
    (Option.get chosen)

let test_incumbent_none () =
  let challenger = r ~from:3 [ 3; 10 ] in
  Alcotest.check Testutil.route_testable "no incumbent = plain best" challenger
    (Option.get (D.best_with_incumbent ~incumbent:None [ challenger ]))

let route_gen =
  QCheck2.Gen.(
    map2
      (fun (lp, from) path -> Testutil.route ~local_pref:lp ~from path)
      (pair (int_range 50 200) (int_range 1 100))
      (list_size (int_range 1 6) Testutil.asn_gen))

let prop_prefer_antisymmetric =
  Testutil.qtest "prefer is antisymmetric"
    QCheck2.Gen.(pair route_gen route_gen)
    (fun (a, b) ->
      let ab = D.prefer a b and ba = D.prefer b a in
      (ab > 0 && ba < 0) || (ab < 0 && ba > 0) || (ab = 0 && ba = 0))

let prop_prefer_transitive =
  Testutil.qtest "prefer is transitive"
    QCheck2.Gen.(triple route_gen route_gen route_gen)
    (fun (a, b, c) ->
      let le x y = D.prefer x y <= 0 in
      (not (le a b && le b c)) || le a c)

let prop_best_is_minimum =
  Testutil.qtest "best is preferred over every candidate"
    QCheck2.Gen.(list_size (int_range 1 10) route_gen)
    (fun candidates ->
      match D.best candidates with
      | None -> false
      | Some b -> List.for_all (fun c -> D.prefer b c <= 0) candidates)

let prop_incumbent_never_worse =
  Testutil.qtest "incumbent rule never selects a strictly worse route"
    QCheck2.Gen.(pair route_gen (list_size (int_range 1 8) route_gen))
    (fun (incumbent, others) ->
      let candidates = incumbent :: others in
      match
        D.best_with_incumbent ~incumbent:(Some incumbent) candidates
      with
      | None -> false
      | Some chosen ->
        List.for_all (fun c -> D.prefer_attrs chosen c <= 0) candidates)

let () =
  Alcotest.run "decision"
    [
      ( "ordering",
        [
          Alcotest.test_case "local pref" `Quick test_local_pref_wins;
          Alcotest.test_case "path length" `Quick test_shorter_path_wins;
          Alcotest.test_case "origin attribute" `Quick test_origin_attr_breaks_tie;
          Alcotest.test_case "peer tie-break" `Quick test_peer_tiebreak;
          Alcotest.test_case "originated wins" `Quick test_originated_beats_learned;
          Alcotest.test_case "empty" `Quick test_best_empty;
          Alcotest.test_case "rank vs best" `Quick test_rank_consistent_with_best;
        ] );
      ( "oldest-route rule",
        [
          Alcotest.test_case "tie keeps incumbent" `Quick test_incumbent_keeps_equal;
          Alcotest.test_case "strictly better replaces" `Quick
            test_incumbent_loses_to_strictly_better;
          Alcotest.test_case "incumbent withdrawn" `Quick test_incumbent_gone;
          Alcotest.test_case "no incumbent" `Quick test_incumbent_none;
        ] );
      ( "properties",
        [
          prop_prefer_antisymmetric;
          prop_prefer_transitive;
          prop_best_is_minimum;
          prop_incumbent_never_worse;
        ] );
    ]
