(* Tests for the off-line monitor (Section 4.2 deployment path): feed
   tables and UPDATEs replayed into the stream monitor. *)

open Net
module Sm = Stream.Monitor
module Src = Stream.Source

let victim = Testutil.victim
let legit = Testutil.moas_communities [ 10; 20 ]

let valid ~from ~origin = Testutil.route ~communities:legit ~from [ from; origin ]
let forged ~from ~attacker =
  Testutil.route
    ~communities:(Testutil.moas_communities [ 10; 20; attacker ])
    ~from [ attacker ]

(* one poll of one feed's table, then the MOAS-list check *)
let poll m ~time ~feed routes =
  Array.iter (Sm.ingest m) (Src.of_table ~time ~peer:(Asn.make feed) routes);
  Sm.settle m ~time

let create () = Sm.create Sm.default_config

let conflicts m = Stream.Report.flagged_open (Sm.snapshot m)

let tracked m =
  List.length (List.filter (fun p -> p.Sm.p_origins <> []) (Sm.snapshot m).Sm.s_prefixes)

let test_no_conflict_single_feed () =
  let m = create () in
  poll m ~time:1 ~feed:1 [ valid ~from:1 ~origin:10 ];
  Alcotest.(check int) "tracked" 1 (tracked m);
  Alcotest.(check int) "no episode" 0 (Sm.open_count m);
  Alcotest.(check int) "no conflict" 0 (List.length (conflicts m))

let test_consistent_feeds () =
  let m = create () in
  poll m ~time:1 ~feed:1 [ valid ~from:1 ~origin:10 ];
  poll m ~time:1 ~feed:2 [ valid ~from:2 ~origin:20 ];
  Alcotest.(check int) "a MOAS episode is open" 1 (Sm.open_count m);
  Alcotest.(check int) "valid MOAS is consistent" 0 (List.length (conflicts m))

let test_conflict_across_feeds () =
  let m = create () in
  poll m ~time:1 ~feed:1 [ valid ~from:1 ~origin:10 ];
  poll m ~time:2 ~feed:2 [ forged ~from:2 ~attacker:666 ];
  match conflicts m with
  | [ p ] ->
    Alcotest.check Testutil.prefix_testable "prefix" victim p.Sm.p_prefix;
    Alcotest.(check (list (pair int (option (list int)))))
      "each origin with the list it advertised"
      [ (10, Some [ 10; 20 ]); (666, Some [ 10; 20; 666 ]) ]
      (List.map
         (fun { Sm.origin; adv_list } ->
           let ints l = List.map Asn.to_int (Asn.Set.elements l) in
           (Asn.to_int origin, Option.map ints adv_list))
         p.Sm.p_origins)
  | l -> Alcotest.failf "expected one conflict, got %d" (List.length l)

let test_conflict_resolves_on_withdraw () =
  let m = create () in
  poll m ~time:1 ~feed:1 [ valid ~from:1 ~origin:10 ];
  poll m ~time:2 ~feed:2 [ forged ~from:2 ~attacker:666 ];
  Alcotest.(check int) "live conflict" 1 (List.length (conflicts m));
  Sm.ingest m
    {
      Sm.time = 3;
      peer = Asn.make 2;
      prefix = victim;
      action = Sm.Withdraw { origin = Asn.make 666 };
    };
  Sm.settle m ~time:3;
  Alcotest.(check int) "resolved after withdrawal" 0 (List.length (conflicts m));
  (* but the closed episode remembers *)
  match (Sm.snapshot m).Sm.s_closed with
  | [ e ] -> Alcotest.(check bool) "closed episode stays flagged" false e.Sm.e_clean
  | l -> Alcotest.failf "expected one closed episode, got %d" (List.length l)

let test_update_dispatch () =
  (* an UPDATE's announcement and withdrawal both reach the monitor *)
  let m = create () in
  let feed = Asn.make 10 in
  let route = Testutil.route ~communities:legit ~from:10 [ 10 ] in
  let send update =
    Array.iter (Sm.ingest m) (Src.of_wire ~time:1 ~peer:feed (Bgp.Wire.of_update update))
  in
  send (Bgp.Update.announce ~sender:feed route);
  Alcotest.(check int) "announce ingested" 1 (tracked m);
  send (Bgp.Update.withdraw ~sender:feed victim);
  Alcotest.(check int) "withdraw ingested" 0 (tracked m)

let test_table_snapshot_replaces () =
  (* a later poll's route replaces what the same origin advertised *)
  let m = create () in
  poll m ~time:1 ~feed:1 [ valid ~from:1 ~origin:10 ];
  poll m ~time:1 ~feed:2 [ valid ~from:2 ~origin:20 ];
  Alcotest.(check int) "consistent" 0 (List.length (conflicts m));
  poll m ~time:2 ~feed:1
    [ Testutil.route ~communities:(Testutil.moas_communities [ 10 ]) ~from:1 [ 1; 10 ] ];
  match (Sm.snapshot m).Sm.s_prefixes with
  | [ p ] ->
    Alcotest.(check int) "one entry per origin" 2 (List.length p.Sm.p_origins);
    Alcotest.(check int) "the new list no longer covers AS20" 1 (List.length (conflicts m))
  | l -> Alcotest.failf "expected one prefix, got %d" (List.length l)

let test_history_dedup () =
  let m = create () in
  poll m ~time:1 ~feed:1 [ valid ~from:1 ~origin:10 ];
  poll m ~time:2 ~feed:2 [ forged ~from:2 ~attacker:666 ];
  (* the same conflict re-observed in a later poll *)
  poll m ~time:3 ~feed:2 [ forged ~from:2 ~attacker:666 ];
  let c = (Sm.snapshot m).Sm.s_counters in
  Alcotest.(check int) "one episode" 1 c.Sm.c_opened;
  Alcotest.(check int) "flagged once" 1 c.Sm.c_alerts

let () =
  Alcotest.run "monitor"
    [
      ( "monitor",
        [
          Alcotest.test_case "single feed" `Quick test_no_conflict_single_feed;
          Alcotest.test_case "consistent feeds" `Quick test_consistent_feeds;
          Alcotest.test_case "conflict across feeds" `Quick test_conflict_across_feeds;
          Alcotest.test_case "conflict resolves" `Quick test_conflict_resolves_on_withdraw;
          Alcotest.test_case "update dispatch" `Quick test_update_dispatch;
          Alcotest.test_case "snapshot replaces" `Quick test_table_snapshot_replaces;
          Alcotest.test_case "history dedup" `Quick test_history_dedup;
        ] );
    ]
