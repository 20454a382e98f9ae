(* Tests for Bgp.As_path and Bgp.Community. *)

open Net
module P = Bgp.As_path
module C = Bgp.Community

let test_empty () =
  Alcotest.(check int) "empty length" 0 (P.length P.empty);
  Alcotest.(check bool) "no origin" true (P.origin_as P.empty = None);
  Alcotest.(check bool) "empty candidates" true
    (Asn.Set.is_empty (P.origin_candidates P.empty))

let test_of_list () =
  let p = P.of_list [ 3; 2; 1 ] in
  Alcotest.(check int) "length" 3 (P.length p);
  Alcotest.(check (option int)) "origin is the last AS" (Some 1) (P.origin_as p);
  Alcotest.(check string) "printing" "3 2 1" (P.to_string p)

let test_prepend () =
  let p = P.prepend 4 (P.of_list [ 3; 2; 1 ]) in
  Alcotest.(check int) "length grows" 4 (P.length p);
  Alcotest.(check string) "prepended at head" "4 3 2 1" (P.to_string p);
  Alcotest.(check (option int)) "origin unchanged" (Some 1) (P.origin_as p);
  let q = P.prepend 9 P.empty in
  Alcotest.(check (option int)) "origination: prepend on empty" (Some 9)
    (P.origin_as q)

let test_contains () =
  let p = P.of_list [ 3; 2; 1 ] in
  Alcotest.(check bool) "member" true (P.contains p 2);
  Alcotest.(check bool) "non-member" false (P.contains p 7);
  let with_set = [ P.Seq [ 5 ]; P.Set (Asn.Set.of_list [ 8; 9 ]) ] in
  Alcotest.(check bool) "member of AS_SET" true (P.contains with_set 9)

let test_as_set_length () =
  (* an AS_SET counts as one hop (RFC 4271) *)
  let p = [ P.Seq [ 5; 6 ]; P.Set (Asn.Set.of_list [ 8; 9; 10 ]) ] in
  Alcotest.(check int) "set counts one" 3 (P.length p)

let test_origin_of_set_tail () =
  let p = [ P.Seq [ 5 ]; P.Set (Asn.Set.of_list [ 8; 9 ]) ] in
  Alcotest.(check bool) "aggregated origin is ambiguous" true (P.origin_as p = None);
  Alcotest.check Testutil.asn_set_testable "candidates from the set"
    (Asn.Set.of_list [ 8; 9 ])
    (P.origin_candidates p)

let test_aggregate () =
  let a = P.of_list [ 7; 3; 1 ] and b = P.of_list [ 7; 4; 2 ] in
  let agg = P.aggregate a b in
  Alcotest.(check string) "common head + AS_SET" "7 {1,2,3,4}" (P.to_string agg);
  Alcotest.(check bool) "covers both origins" true
    (Asn.Set.subset (Asn.Set.of_list [ 1; 2 ]) (P.origin_candidates agg));
  let disjoint = P.aggregate (P.of_list [ 1 ]) (P.of_list [ 2 ]) in
  Alcotest.(check string) "no common head" "{1,2}" (P.to_string disjoint)

let test_ases () =
  let p = [ P.Seq [ 5; 6 ]; P.Set (Asn.Set.of_list [ 8 ]) ] in
  Alcotest.check Testutil.asn_set_testable "all mentioned ASes"
    (Asn.Set.of_list [ 5; 6; 8 ])
    (P.ases p)

let test_community () =
  let c = C.make (Asn.make 8584) 0xff02 in
  Alcotest.(check string) "notation" "8584:65282" (C.to_string c);
  Alcotest.(check bool) "equality" true (C.equal c (C.make (Asn.make 8584) 0xff02));
  Alcotest.(check bool) "ordering by asn" true
    (C.compare (C.make (Asn.make 1) 5) (C.make (Asn.make 2) 0) < 0);
  Alcotest.(check bool) "ordering by value" true
    (C.compare (C.make (Asn.make 1) 0) (C.make (Asn.make 1) 1) < 0);
  Alcotest.check_raises "17-bit value rejected"
    (Invalid_argument "Community.make: value out of 16-bit range") (fun () ->
      ignore (C.make (Asn.make 1) 65536))

let path_gen =
  QCheck2.Gen.(list_size (int_range 1 8) Testutil.asn_gen)

let prop_prepend_contains =
  Testutil.qtest "prepended AS is contained"
    QCheck2.Gen.(pair Testutil.asn_gen path_gen)
    (fun (asn, ases) -> P.contains (P.prepend asn (P.of_list ases)) asn)

let prop_prepend_length =
  Testutil.qtest "prepend adds exactly one hop"
    QCheck2.Gen.(pair Testutil.asn_gen path_gen)
    (fun (asn, ases) ->
      P.length (P.prepend asn (P.of_list ases)) = P.length (P.of_list ases) + 1)

let prop_origin_invariant_under_prepend =
  Testutil.qtest "origin survives any number of prepends"
    QCheck2.Gen.(pair (list_size (int_range 0 5) Testutil.asn_gen) path_gen)
    (fun (prepends, ases) ->
      let base = P.of_list ases in
      let final = List.fold_left (fun p a -> P.prepend a p) base prepends in
      P.origin_as final = P.origin_as base)

let prop_aggregate_covers =
  Testutil.qtest "aggregate mentions every AS of both paths"
    QCheck2.Gen.(pair path_gen path_gen)
    (fun (a, b) ->
      let pa = P.of_list a and pb = P.of_list b in
      Asn.Set.subset
        (Asn.Set.union (P.ases pa) (P.ases pb))
        (P.ases (P.aggregate pa pb)))

(* The same AS_SET built by adding its members in two orders: the
   balanced trees differ in shape, which the polymorphic compare used to
   read as two different paths. *)
let test_set_equality_ignores_build_order () =
  let members = List.init 6 (fun i -> Asn.make (i + 1)) in
  let up = List.fold_left (fun s a -> Asn.Set.add a s) Asn.Set.empty members in
  let down =
    List.fold_left (fun s a -> Asn.Set.add a s) Asn.Set.empty (List.rev members)
  in
  Alcotest.(check bool) "the two trees differ in shape" true
    (Stdlib.compare up down <> 0);
  let path set = [ P.Seq [ Asn.make 9; Asn.make 8 ]; P.Set set ] in
  Alcotest.(check bool) "equal" true (P.equal (path up) (path down));
  Alcotest.(check int) "compare = 0" 0 (P.compare (path up) (path down));
  let route set =
    { (Testutil.route ~from:9 [ 9; 8 ]) with Bgp.Route.as_path = path set }
  in
  Alcotest.(check bool) "an unchanged aggregate is not a new route" true
    (Bgp.Route.equal (route up) (route down))

(* paths mixing sequences and sets, sets built in a random order *)
let segment_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun l -> P.Seq l) (list_size (int_range 0 4) (int_range 1 6));
        map
          (fun l -> P.Set (List.fold_left (fun s a -> Asn.Set.add a s) Asn.Set.empty l))
          (list_size (int_range 0 6) (int_range 1 6));
      ])

let mixed_path_gen = QCheck2.Gen.(list_size (int_range 0 3) segment_gen)

let prop_compare_antisymmetric =
  Testutil.qtest "compare is antisymmetric and agrees with equal"
    QCheck2.Gen.(pair mixed_path_gen mixed_path_gen)
    (fun (a, b) ->
      let ab = P.compare a b and ba = P.compare b a in
      Int.compare ab 0 = - Int.compare ba 0 && (ab = 0) = P.equal a b)

let prop_compare_order_of_insertion =
  Testutil.qtest "rebuilding every AS_SET keeps a path equal"
    mixed_path_gen
    (fun p ->
      let rebuilt =
        List.map
          (function
            | P.Set s ->
              P.Set
                (List.fold_left (fun acc a -> Asn.Set.add a acc) Asn.Set.empty
                   (List.rev (Asn.Set.elements s)))
            | seg -> seg)
          p
      in
      P.equal p rebuilt && P.compare p rebuilt = 0)

let prop_compare_matches_structural_on_sequences =
  Testutil.qtest "on AS_SEQUENCE paths the order is the structural one"
    QCheck2.Gen.(pair path_gen path_gen)
    (fun (a, b) ->
      let pa = P.of_list a and pb = P.of_list b in
      Int.compare (P.compare pa pb) 0 = Int.compare (Stdlib.compare pa pb) 0)

let () =
  Alcotest.run "as_path"
    [
      ( "as_path",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "of_list" `Quick test_of_list;
          Alcotest.test_case "prepend" `Quick test_prepend;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "AS_SET length" `Quick test_as_set_length;
          Alcotest.test_case "AS_SET origin" `Quick test_origin_of_set_tail;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "ases" `Quick test_ases;
          Alcotest.test_case "AS_SET equality ignores build order" `Quick
            test_set_equality_ignores_build_order;
        ] );
      ("community", [ Alcotest.test_case "community values" `Quick test_community ]);
      ( "properties",
        [
          prop_prepend_contains;
          prop_prepend_length;
          prop_origin_invariant_under_prepend;
          prop_aggregate_covers;
          prop_compare_antisymmetric;
          prop_compare_order_of_insertion;
          prop_compare_matches_structural_on_sequences;
        ] );
    ]
