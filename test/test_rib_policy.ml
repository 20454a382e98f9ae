(* Tests for Bgp.Rib, Bgp.Policy, Bgp.Route and Bgp.Update helpers. *)

open Net
module Rib = Bgp.Rib
module Policy = Bgp.Policy

let r = Testutil.route
let victim = Testutil.victim

(* RIBs for peers AS 1 to AS 8, which hold slots 0 to 7 as a router's
   peers would: in increasing AS order *)
let new_rib () = Rib.create ~slots:8
let slot peer = Asn.to_int peer - 1

(* RIB access by AS and prefix, through the prefix's entry: the
   Adj-RIB-In write of [peer]'s route, the candidates, the Loc-RIB writes
   and a session teardown *)
let replace_in rib ~peer prefix route =
  Rib.write_in (Rib.entry rib prefix) (slot peer) route

let set_in rib (route : Bgp.Route.t) =
  ignore (replace_in rib ~peer:route.learned_from route.prefix (Some route))

let withdraw_in rib ~peer prefix = ignore (replace_in rib ~peer prefix None)
let routes_in rib prefix = Rib.candidates (Rib.entry rib prefix)
let set_best rib (route : Bgp.Route.t) = Rib.install rib (Rib.entry rib route.prefix) (Some route)
let clear_best rib prefix = Rib.install rib (Rib.entry rib prefix) None
let flush rib ~peer = Rib.flush_peer rib (slot peer)

let test_rib_set_and_get () =
  let rib = new_rib () in
  (* AS 2's route is written first, into the higher slot *)
  set_in rib (r ~from:2 [ 2; 10 ]);
  set_in rib (r ~from:1 [ 1; 10 ]);
  Alcotest.(check int) "two candidates" 2 (List.length (routes_in rib victim));
  Alcotest.(check (list int)) "candidates in peer order" [ 1; 2 ]
    (List.map (fun r -> r.Bgp.Route.learned_from) (routes_in rib victim))

let test_rib_implicit_withdrawal () =
  let rib = new_rib () in
  let first = r ~from:1 [ 1; 10 ] in
  set_in rib first;
  (match replace_in rib ~peer:(Asn.make 1) victim (Some (r ~from:1 [ 1; 2; 10 ])) with
  | Some replaced when replaced == first -> ()
  | _ -> Alcotest.fail "the replaced entry is returned");
  match routes_in rib victim with
  | [ only ] ->
    Alcotest.(check int) "latest announcement replaces" 3
      (Bgp.As_path.length only.Bgp.Route.as_path)
  | l -> Alcotest.failf "expected 1 candidate, got %d" (List.length l)

let test_rib_withdraw () =
  let rib = new_rib () in
  set_in rib (r ~from:1 [ 1; 10 ]);
  withdraw_in rib ~peer:(Asn.make 1) victim;
  Alcotest.(check int) "gone" 0 (List.length (routes_in rib victim));
  (* withdrawing twice is harmless *)
  withdraw_in rib ~peer:(Asn.make 1) victim;
  Alcotest.(check bool) "prefix fully forgotten" true
    (Prefix.Set.is_empty (Rib.prefixes_in rib))

let test_rib_best () =
  let rib = new_rib () in
  Alcotest.(check bool) "empty loc-rib" true (Rib.best rib victim = None);
  let route = r ~from:1 [ 1; 10 ] in
  set_best rib route;
  Alcotest.check Testutil.route_testable "installed" route
    (Option.get (Rib.best rib victim));
  clear_best rib victim;
  Alcotest.(check bool) "cleared" true (Rib.best rib victim = None)

let test_rib_multiple_prefixes () =
  let rib = new_rib () in
  let p2 = Prefix.of_string "10.0.0.0/8" in
  set_best rib (r ~from:1 [ 1; 10 ]);
  set_best rib (r ~prefix:p2 ~from:2 [ 2; 20 ]);
  Alcotest.(check int) "two loc-rib entries" 2 (List.length (Rib.best_bindings rib));
  (* the loc-rib trie supports longest-prefix forwarding *)
  let host = Ipv4.of_string "10.1.2.3" in
  match Net.Prefix_trie.longest_match host (Rib.loc_rib_trie rib) with
  | Some (q, _) -> Alcotest.check Testutil.prefix_testable "lpm" p2 q
  | None -> Alcotest.fail "expected a match"

(* regression for the O(1) loc-rib gauge: the maintained cardinality must
   track installs, same-prefix replacements, clears, double clears and a
   full reset exactly like counting the bindings would *)
let test_rib_loc_rib_size () =
  let rib = new_rib () in
  let p2 = Prefix.of_string "10.0.0.0/8" in
  let sizes_agree label =
    Alcotest.(check int) label
      (List.length (Rib.best_bindings rib))
      (Rib.loc_rib_size rib)
  in
  Alcotest.(check int) "empty" 0 (Rib.loc_rib_size rib);
  set_best rib (r ~from:1 [ 1; 10 ]);
  Alcotest.(check int) "one entry" 1 (Rib.loc_rib_size rib);
  set_best rib (r ~from:2 [ 2; 10 ]);
  Alcotest.(check int) "replacement does not double-count" 1
    (Rib.loc_rib_size rib);
  set_best rib (r ~prefix:p2 ~from:2 [ 2; 20 ]);
  Alcotest.(check int) "second prefix" 2 (Rib.loc_rib_size rib);
  sizes_agree "matches bindings";
  clear_best rib victim;
  Alcotest.(check int) "cleared one" 1 (Rib.loc_rib_size rib);
  clear_best rib victim;
  Alcotest.(check int) "double clear is a no-op" 1 (Rib.loc_rib_size rib);
  sizes_agree "matches bindings after clears";
  Rib.clear rib;
  Alcotest.(check int) "reset" 0 (Rib.loc_rib_size rib)

let test_rib_flush_peer () =
  let rib = new_rib () in
  let p2 = Prefix.of_string "10.0.0.0/8" in
  let p3 = Prefix.of_string "172.16.0.0/12" in
  set_in rib (r ~from:1 [ 1; 10 ]);
  set_in rib (r ~prefix:p2 ~from:1 [ 1; 20 ]);
  set_in rib (r ~prefix:p3 ~from:2 [ 2; 30 ]);
  (* re-announcing then withdrawing must leave the index consistent *)
  set_in rib (r ~prefix:p2 ~from:1 [ 1; 2; 20 ]);
  let affected = flush rib ~peer:(Asn.make 1) in
  Alcotest.(check (list Testutil.prefix_testable))
    "affected prefixes, ascending" [ p2; victim ] affected;
  Alcotest.(check int) "peer 1 routes gone" 0
    (List.length (routes_in rib victim) + List.length (routes_in rib p2));
  Alcotest.(check int) "peer 2 untouched" 1 (List.length (routes_in rib p3));
  Alcotest.(check (list Testutil.prefix_testable))
    "second flush finds nothing" [] (flush rib ~peer:(Asn.make 1));
  set_in rib (r ~prefix:p2 ~from:2 [ 2; 20 ]);
  withdraw_in rib ~peer:(Asn.make 2) p2;
  Alcotest.(check (list Testutil.prefix_testable))
    "withdrawn routes are not re-flushed" [ p3 ]
    (flush rib ~peer:(Asn.make 2))

let test_policy_default () =
  let route = r ~from:1 [ 1; 10 ] in
  Alcotest.(check (option Testutil.route_testable)) "import passes"
    (Some route)
    (Policy.default.Policy.import ~peer:(Asn.make 1) route);
  Alcotest.(check (option Testutil.route_testable)) "export passes"
    (Some route)
    (Policy.default.Policy.export ~peer:(Asn.make 1) route)

let test_policy_dropper () =
  let communities = Testutil.moas_communities [ 10; 20 ] in
  let route = r ~communities ~from:1 [ 1; 10 ] in
  let dropper = Policy.drop_communities_on_export Policy.default in
  (match dropper.Policy.export ~peer:(Asn.make 2) route with
  | Some exported ->
    Alcotest.(check bool) "communities stripped" true
      (Bgp.Community.Set.is_empty exported.Bgp.Route.communities)
  | None -> Alcotest.fail "dropper must not filter");
  (* import side untouched *)
  match dropper.Policy.import ~peer:(Asn.make 2) route with
  | Some imported ->
    Alcotest.(check bool) "import keeps communities" false
      (Bgp.Community.Set.is_empty imported.Bgp.Route.communities)
  | None -> Alcotest.fail "import must pass"

let test_policy_reject_when () =
  let p =
    Policy.reject_import_when
      (fun ~peer:_ route -> Bgp.As_path.length route.Bgp.Route.as_path > 2)
      Policy.default
  in
  Alcotest.(check bool) "short accepted" true
    (p.Policy.import ~peer:(Asn.make 1) (r ~from:1 [ 1; 10 ]) <> None);
  Alcotest.(check bool) "long rejected" true
    (p.Policy.import ~peer:(Asn.make 1) (r ~from:1 [ 1; 2; 3; 10 ]) = None)

let test_policy_compose_export () =
  let p =
    Policy.compose_export
      (fun ~peer:_ route -> Some { route with Bgp.Route.local_pref = 7 })
      (Policy.drop_communities_on_export Policy.default)
  in
  let communities = Testutil.moas_communities [ 10 ] in
  match p.Policy.export ~peer:(Asn.make 1) (r ~communities ~from:1 [ 1; 10 ]) with
  | Some e ->
    Alcotest.(check int) "second stage applied" 7 e.Bgp.Route.local_pref;
    Alcotest.(check bool) "first stage applied" true
      (Bgp.Community.Set.is_empty e.Bgp.Route.communities)
  | None -> Alcotest.fail "export chain must pass"

let test_route_helpers () =
  let self = Asn.make 4 in
  let originated = Bgp.Route.originate ~self victim in
  Alcotest.(check int) "originated path empty" 0
    (Bgp.As_path.length originated.Bgp.Route.as_path);
  Alcotest.(check int) "origin of originated route is self" 4
    (Bgp.Route.origin_as ~self originated);
  let advertised = Bgp.Route.advertised_by self originated in
  Alcotest.(check int) "advertised origin" 4
    (Bgp.Route.origin_as ~self:(Asn.make 1) advertised);
  let received = Bgp.Route.received ~from:(Asn.make 9) advertised in
  Alcotest.(check int) "learned_from stamped" 9
    (Asn.to_int received.Bgp.Route.learned_from)

let test_update_helpers () =
  let u = Bgp.Update.announce ~sender:(Asn.make 1) (r ~from:1 [ 1; 10 ]) in
  Alcotest.check Testutil.prefix_testable "announce prefix" victim
    (Bgp.Update.prefix u);
  let w = Bgp.Update.withdraw ~sender:(Asn.make 1) victim in
  Alcotest.check Testutil.prefix_testable "withdraw prefix" victim
    (Bgp.Update.prefix w)

(* ---- model-based properties: random operation sequences against
   reference structures, checked after every operation ---- *)

(* nested and sibling prefixes, so that longest-match has choices *)
let prefix_pool =
  Array.of_list
    (List.map Prefix.of_string
       [
         "10.0.0.0/8"; "10.0.0.0/16"; "10.0.0.0/24"; "10.0.1.0/24"; "10.128.0.0/9";
         "192.0.2.0/24"; "192.0.2.0/25"; "192.0.2.128/25"; "0.0.0.0/0"; "172.16.0.0/12";
       ])

let probe_addrs =
  List.map Ipv4.of_string
    [
      "10.0.0.1"; "10.0.1.7"; "10.200.0.1"; "10.1.2.3";
      "192.0.2.1"; "192.0.2.200"; "8.8.8.8"; "172.20.0.1";
    ]

type loc_op = Set_best of int * int | Clear_best of int | Clear_all

let loc_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun p tag -> Set_best (p, tag)) (int_bound 9) (int_range 1 50));
        (3, map (fun p -> Clear_best p) (int_bound 9));
        (1, pure Clear_all);
      ])

let loc_route p tag =
  r ~prefix:prefix_pool.(p) ~from:tag [ tag; 100 + p ]

let same_binding (p1, r1) (p2, r2) = Prefix.equal p1 p2 && Bgp.Route.equal r1 r2

let prop_loc_rib_model =
  Testutil.qtest ~count:300 "Loc-RIB agrees with a reference trie after every operation"
    QCheck2.Gen.(list_size (int_range 1 60) loc_op_gen)
    (fun ops ->
      let rib = new_rib () in
      let reference = ref Prefix_trie.empty in
      List.for_all
        (fun op ->
          (match op with
          | Set_best (p, tag) ->
            let route = loc_route p tag in
            set_best rib route;
            reference := Prefix_trie.add prefix_pool.(p) route !reference
          | Clear_best p ->
            clear_best rib prefix_pool.(p);
            reference := Prefix_trie.remove prefix_pool.(p) !reference
          | Clear_all ->
            Rib.clear rib;
            reference := Prefix_trie.empty);
          let same_opt a b = Option.equal same_binding a b in
          Array.for_all
            (fun p ->
              Option.equal Bgp.Route.equal (Rib.best rib p)
                (Prefix_trie.find_opt p !reference))
            prefix_pool
          && Rib.loc_rib_size rib = Prefix_trie.cardinal !reference
          && List.equal same_binding (Rib.best_bindings rib)
               (Prefix_trie.bindings !reference)
          (* the cached forwarding view must follow every change *)
          && List.for_all
               (fun addr ->
                 same_opt
                   (Prefix_trie.longest_match addr (Rib.loc_rib_trie rib))
                   (Prefix_trie.longest_match addr !reference))
               probe_addrs)
        ops)

type adj_op = Announce of int * int * int | Withdraw of int * int | Flush of int

let adj_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map3 (fun peer p v -> Announce (peer, p, v)) (int_range 1 8) (int_bound 3)
            (int_range 1 5) );
        (3, map2 (fun peer p -> Withdraw (peer, p)) (int_range 1 8) (int_bound 3));
        (1, map (fun peer -> Flush peer) (int_range 1 8));
      ])

let prop_adj_rib_in_model =
  Testutil.qtest ~count:300 "Adj-RIB-In agrees with a reference map after every operation"
    QCheck2.Gen.(list_size (int_range 1 80) adj_op_gen)
    (fun ops ->
      let rib = new_rib () in
      let reference = ref Prefix.Map.empty in
      let per_peer p =
        Option.value ~default:Asn.Map.empty (Prefix.Map.find_opt p !reference)
      in
      let set p m =
        reference :=
          if Asn.Map.is_empty m then Prefix.Map.remove p !reference
          else Prefix.Map.add p m !reference
      in
      List.for_all
        (fun op ->
          let flushed_ok =
            match op with
            | Announce (peer, p, v) ->
              let route = r ~prefix:prefix_pool.(p) ~from:peer [ peer; 100 + v ] in
              set_in rib route;
              set prefix_pool.(p) (Asn.Map.add peer route (per_peer prefix_pool.(p)));
              true
            | Withdraw (peer, p) ->
              withdraw_in rib ~peer prefix_pool.(p);
              set prefix_pool.(p) (Asn.Map.remove peer (per_peer prefix_pool.(p)));
              true
            | Flush peer ->
              let expected =
                Prefix.Map.fold
                  (fun p m acc -> if Asn.Map.mem peer m then p :: acc else acc)
                  !reference []
                |> List.rev
              in
              Prefix.Map.iter (fun p m -> set p (Asn.Map.remove peer m)) !reference;
              List.equal Prefix.equal (flush rib ~peer) expected
          in
          flushed_ok
          && Array.for_all
               (fun p ->
                 let m = per_peer p in
                 List.equal Bgp.Route.equal (routes_in rib p)
                   (List.map snd (Asn.Map.bindings m)))
               prefix_pool
          && Prefix.Set.equal (Rib.prefixes_in rib)
               (Prefix.Set.of_list (List.map fst (Prefix.Map.bindings !reference))))
        ops)

let () =
  Alcotest.run "rib_policy"
    [
      ( "rib",
        [
          Alcotest.test_case "set/get" `Quick test_rib_set_and_get;
          Alcotest.test_case "implicit withdrawal" `Quick test_rib_implicit_withdrawal;
          Alcotest.test_case "withdraw" `Quick test_rib_withdraw;
          Alcotest.test_case "loc-rib" `Quick test_rib_best;
          Alcotest.test_case "multiple prefixes + lpm" `Quick test_rib_multiple_prefixes;
          Alcotest.test_case "loc-rib cardinality" `Quick test_rib_loc_rib_size;
          Alcotest.test_case "flush peer" `Quick test_rib_flush_peer;
          prop_loc_rib_model;
          prop_adj_rib_in_model;
        ] );
      ( "policy",
        [
          Alcotest.test_case "default" `Quick test_policy_default;
          Alcotest.test_case "community dropper" `Quick test_policy_dropper;
          Alcotest.test_case "reject predicate" `Quick test_policy_reject_when;
          Alcotest.test_case "export composition" `Quick test_policy_compose_export;
        ] );
      ( "route/update",
        [
          Alcotest.test_case "route helpers" `Quick test_route_helpers;
          Alcotest.test_case "update helpers" `Quick test_update_helpers;
        ] );
    ]
