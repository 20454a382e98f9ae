(* Tests for Bgp.Router (unit level, with a manual transport) and
   Bgp.Network (integration over small topologies). *)

open Net
module Router = Bgp.Router
module Network = Bgp.Network
module Update = Bgp.Update

let victim = Testutil.victim

(* a synchronous loopback transport capturing everything a router sends *)
let wire router =
  let sent = ref [] in
  Router.set_transport router
    ~send:(fun ~peer ~slot:_ update -> sent := (peer, update) :: !sent)
    ~schedule:(fun ~delay:_ _ -> ());
  fun () ->
    let out = List.rev !sent in
    sent := [];
    out

let announce ~from path ?(communities = Bgp.Community.Set.empty) () =
  Update.announce ~sender:(Asn.make from)
    (Testutil.route ~communities ~from path)

let test_originate_advertises_to_all_peers () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 1) in
  let drain = wire router in
  Router.originate router ~now:0.0 (Bgp.Route.originate ~self:(Asn.make 1) victim);
  let sent = drain () in
  Alcotest.(check int) "one update per peer" 2 (List.length sent);
  List.iter
    (fun (_, u) ->
      match u.Update.payload with
      | Update.Announce route ->
        Alcotest.(check int) "origin prepended" 1
          (Bgp.Route.origin_as ~self:(Asn.make 99) route |> Asn.to_int)
      | Update.Withdraw _ -> Alcotest.fail "expected announce")
    sent

let test_loop_detection () =
  let router = Router.create ~peers:(Testutil.peers [ 2 ]) (Asn.make 7) in
  let drain = wire router in
  (* a path already containing AS 7 must be discarded *)
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 7; 10 ] ());
  ignore (drain ());
  Alcotest.(check bool) "looping route not installed" true
    (Router.best router victim = None)

let test_loop_detection_implicit_withdraw () =
  (* peer 3 heard the first route and must hear the withdrawal *)
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 7) in
  let drain = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 10 ] ());
  Alcotest.(check bool) "first route installed" true
    (Router.best router victim <> None);
  ignore (drain ());
  (* the same peer now sends a looping path: the old route must go away *)
  Router.handle_update router ~now:2.0 (announce ~from:2 [ 2; 7; 10 ] ());
  Alcotest.(check bool) "looping replacement withdraws" true
    (Router.best router victim = None);
  (* and the loss is propagated as an explicit withdrawal *)
  let sent = drain () in
  Alcotest.(check bool) "withdraw emitted" true
    (List.exists
       (fun (_, u) ->
         match u.Update.payload with
         | Update.Withdraw _ -> true
         | Update.Announce _ -> false)
       sent)

let test_split_horizon () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 1) in
  let drain = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 10 ] ());
  let sent = drain () in
  let targets = List.map (fun (peer, _) -> Asn.to_int peer) sent in
  Alcotest.(check (list int)) "only the other peer hears it" [ 3 ] targets

let test_no_duplicate_advertisements () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 1) in
  let drain = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 10 ] ());
  ignore (drain ());
  (* the identical announcement again: nothing new to say *)
  Router.handle_update router ~now:2.0 (announce ~from:2 [ 2; 10 ] ());
  Alcotest.(check int) "duplicate suppressed" 0 (List.length (drain ()))

let test_better_route_replaces () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3; 4 ]) (Asn.make 1) in
  let drain = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 9; 10 ] ());
  ignore (drain ());
  Router.handle_update router ~now:2.0 (announce ~from:3 [ 3; 10 ] ());
  (match Router.best router victim with
  | Some best ->
    Alcotest.(check int) "shorter route installed" 2
      (Bgp.As_path.length best.Bgp.Route.as_path)
  | None -> Alcotest.fail "route expected");
  let sent = drain () in
  (* the new best is announced to 2 and 4; peer 3, which now supplies the
     best route, gets a withdrawal of the previously advertised one *)
  let kind u =
    match u.Update.payload with
    | Update.Announce _ -> "announce"
    | Update.Withdraw _ -> "withdraw"
  in
  let tagged =
    List.map (fun (peer, u) -> (Asn.to_int peer, kind u)) sent
    |> List.sort compare
  in
  Alcotest.(check (list (pair int string)))
    "re-advertised around split horizon"
    [ (2, "announce"); (3, "withdraw"); (4, "announce") ]
    tagged

let test_withdraw_falls_back () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) (Asn.make 1) in
  let drain = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 10 ] ());
  Router.handle_update router ~now:2.0 (announce ~from:3 [ 3; 8; 10 ] ());
  ignore (drain ());
  Router.handle_update router ~now:3.0
    (Update.withdraw ~sender:(Asn.make 2) victim);
  match Router.best router victim with
  | Some best ->
    Alcotest.(check int) "fell back to the longer route" 3
      (Bgp.As_path.length best.Bgp.Route.as_path)
  | None -> Alcotest.fail "backup route expected"

let test_validator_filters () =
  let validator ~now:_ ~prefix:_ routes =
    List.filter
      (fun route -> Bgp.Route.origin_as ~self:(Asn.make 1) route <> Asn.make 666)
      routes
  in
  let router =
    Router.create ~peers:(Testutil.peers [ 2 ]) ~validator:(Router.scan_only validator)
      (Asn.make 1)
  in
  let (_ : unit -> (Net.Asn.t * Update.t) list) = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 666 ] ());
  Alcotest.(check bool) "filtered origin never selected" true
    (Router.best router victim = None);
  Router.handle_update router ~now:2.0 (announce ~from:2 [ 2; 10 ] ());
  Alcotest.(check bool) "clean origin selected" true
    (Router.best router victim <> None)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_create_validates_peers () =
  List.iter
    (fun (label, peers) ->
      Alcotest.(check bool) label true
        (raises_invalid (fun () ->
             Router.create ~peers:(Testutil.peers peers) (Asn.make 5))))
    [ ("unsorted", [ 3; 2 ]); ("duplicate", [ 2; 3; 3 ]); ("self", [ 2; 5; 7 ]) ];
  let router = Router.create ~peers:(Testutil.peers [ 2; 3; 7 ]) (Asn.make 5) in
  Alcotest.(check (list int)) "increasing peers accepted" [ 2; 3; 7 ]
    (List.map Asn.to_int (Router.peers router))

(* a router takes UPDATEs and sessions only from the peers it was made
   with, and a refused UPDATE leaves no trace *)
let test_unknown_peer_refused () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 4 ]) (Asn.make 1) in
  let drain = wire router in
  Alcotest.(check bool) "UPDATE from an AS without a slot" true
    (raises_invalid (fun () ->
         Router.handle_update router ~now:1.0 (announce ~from:3 [ 3; 10 ] ())));
  Alcotest.(check bool) "nothing installed" true (Router.best router victim = None);
  Alcotest.(check bool) "peer_up for an AS without a slot" true
    (raises_invalid (fun () -> Router.peer_up router ~now:2.0 (Asn.make 3)));
  Alcotest.(check (list int)) "sessions unchanged" [ 2; 4 ]
    (List.map Asn.to_int (Router.peers router));
  Alcotest.(check int) "nothing sent" 0 (List.length (drain ()));
  (* peer_down for an unknown AS stays a no-op *)
  Router.peer_down router ~now:3.0 (Asn.make 3);
  Router.handle_update router ~now:4.0 (announce ~from:4 [ 4; 10 ] ());
  Alcotest.(check (list int)) "a declared peer is heard" [ 2 ]
    (List.map (fun (peer, _) -> Asn.to_int peer) (drain ()))

let test_counters () =
  let router = Router.create ~peers:(Testutil.peers [ 2 ]) (Asn.make 1) in
  let (_ : unit -> (Net.Asn.t * Update.t) list) = wire router in
  Router.handle_update router ~now:1.0 (announce ~from:2 [ 2; 10 ] ());
  Alcotest.(check int) "received counted" 1 (Router.updates_received router);
  Alcotest.(check bool) "sent counted" true (Router.updates_sent router >= 0)

(* ---------------- network integration ---------------- *)

(* Network.make with an explicit Config (the former Network.create
   labelled-argument wrapper was removed after its deprecation release). *)
let test_configured_make () =
  let net =
    Network.make
      ~config:
        Network.Config.(default |> with_mrai_of (fun _ -> 0.0))
      (Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ])
  in
  Network.originate net 1 victim;
  Alcotest.(check bool) "quiescent" true (Network.run net = Sim.Engine.Quiescent);
  List.iter
    (fun asn ->
      match Network.best_route net asn victim with
      | Some route ->
        Alcotest.(check int)
          (Printf.sprintf "AS%d path length = distance" asn)
          (asn - 1)
          (Bgp.As_path.length route.Bgp.Route.as_path)
      | None -> Alcotest.failf "AS%d missing route" asn)
    [ 1; 2; 3; 4 ]

let test_network_line_convergence () =
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let net = Network.make g in
  Network.originate net 1 victim;
  Alcotest.(check bool) "quiescent" true (Network.run net = Sim.Engine.Quiescent);
  List.iter
    (fun asn ->
      match Network.best_route net asn victim with
      | Some route ->
        Alcotest.(check int)
          (Printf.sprintf "AS%d path length = distance" asn)
          (asn - 1)
          (Bgp.As_path.length route.Bgp.Route.as_path)
      | None -> Alcotest.failf "AS%d missing route" asn)
    [ 1; 2; 3; 4 ]

let test_network_ring_prefers_short_side () =
  (* ring of 6: node 4 is 3 hops either way from 1; others take the near side *)
  let g =
    Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 1) ]
  in
  let net = Network.make g in
  Network.originate net 1 victim;
  ignore (Network.run net);
  let len asn =
    Bgp.As_path.length (Option.get (Network.best_route net asn victim)).Bgp.Route.as_path
  in
  Alcotest.(check int) "AS2 one hop" 1 (len 2);
  Alcotest.(check int) "AS6 one hop" 1 (len 6);
  Alcotest.(check int) "AS3 two hops" 2 (len 3);
  Alcotest.(check int) "AS4 three hops" 3 (len 4)

let test_network_withdraw_ripples () =
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3) ] in
  let net = Network.make g in
  Network.originate ~at:0.0 net 1 victim;
  Network.withdraw ~at:50.0 net 1 victim;
  ignore (Network.run net);
  List.iter
    (fun asn ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d has no route after withdrawal" asn)
        true
        (Network.best_route net asn victim = None))
    [ 1; 2; 3 ]

let test_withdraw_origin_reaches_every_as () =
  (* a withdrawal must ripple to every AS of a real topology, not just a
     short line: the 25-AS paper topology ends route-free everywhere *)
  let t = Topology.Paper_topologies.topology_25 () in
  let net = Network.make t.Topology.Paper_topologies.graph in
  let origin = Asn.Set.min_elt t.Topology.Paper_topologies.stub in
  Network.originate ~at:0.0 net origin victim;
  Network.withdraw ~at:50.0 net origin victim;
  Alcotest.(check bool) "converged" true (Network.run net = Sim.Engine.Quiescent);
  Topology.As_graph.fold_nodes
    (fun asn () ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d route gone" asn)
        true
        (Network.best_route net asn victim = None))
    t.Topology.Paper_topologies.graph ()

let test_withdraw_origin_reselects_second_origin () =
  (* anycast: when one of two origins withdraws, every AS fails over to
     the surviving origin instead of losing the prefix *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let net = Network.make g in
  Network.originate ~at:0.0 net 1 victim;
  Network.originate ~at:0.0 net 5 victim;
  Network.withdraw ~at:50.0 net 1 victim;
  ignore (Network.run net);
  List.iter
    (fun asn ->
      Alcotest.(check (option int))
        (Printf.sprintf "AS%d fails over to the surviving origin" asn)
        (Some 5)
        (Network.best_origin net asn victim))
    [ 1; 2; 3; 4; 5 ]

let test_withdraw_origin_keeps_other_prefixes () =
  let other = Prefix.of_string "198.51.100.0/24" in
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let net = Network.make g in
  Network.originate ~at:0.0 net 1 victim;
  Network.originate ~at:0.0 net 1 other;
  Network.withdraw ~at:50.0 net 1 victim;
  ignore (Network.run net);
  List.iter
    (fun asn ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d dropped the withdrawn prefix" asn)
        true
        (Network.best_route net asn victim = None);
      Alcotest.(check bool)
        (Printf.sprintf "AS%d keeps the untouched prefix" asn)
        true
        (Network.best_route net asn other <> None))
    [ 1; 2; 3; 4; 5 ]

let test_network_two_origins_anycast () =
  (* valid MOAS: both ends of a line originate; the middle splits *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let net = Network.make g in
  Network.originate net 1 victim;
  Network.originate net 5 victim;
  ignore (Network.run net);
  let origin asn = Asn.to_int (Option.get (Network.best_origin net asn victim)) in
  Alcotest.(check int) "AS2 reaches the near origin" 1 (origin 2);
  Alcotest.(check int) "AS4 reaches the near origin" 5 (origin 4)

let test_network_converges_on_paper_topologies () =
  List.iter
    (fun t ->
      let net = Network.make t.Topology.Paper_topologies.graph in
      let origin = Asn.Set.min_elt t.Topology.Paper_topologies.stub in
      Network.originate net origin victim;
      Alcotest.(check bool)
        (t.Topology.Paper_topologies.name ^ " converges")
        true
        (Network.run net = Sim.Engine.Quiescent);
      Topology.As_graph.fold_nodes
        (fun asn () ->
          Alcotest.(check bool)
            (Printf.sprintf "AS%d reached" asn)
            true
            (Network.best_route net asn victim <> None))
        t.Topology.Paper_topologies.graph ())
    (Topology.Paper_topologies.all ())

let test_network_path_lengths_match_bfs () =
  let t = Topology.Paper_topologies.topology_46 () in
  let g = t.Topology.Paper_topologies.graph in
  let origin = Asn.Set.min_elt t.Topology.Paper_topologies.stub in
  let net = Network.make g in
  Network.originate net origin victim;
  ignore (Network.run net);
  let dist = Topology.Algorithms.bfs_distances g origin in
  Topology.As_graph.fold_nodes
    (fun asn () ->
      if not (Asn.equal asn origin) then begin
        let got =
          Bgp.As_path.length
            (Option.get (Network.best_route net asn victim)).Bgp.Route.as_path
        in
        Alcotest.(check int)
          (Printf.sprintf "AS%d selects a shortest path" asn)
          (Asn.Map.find asn dist) got
      end)
    g ()

let test_network_mrai_converges_same () =
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 1); (2, 4) ] in
  let run mrai =
    let net = Network.make ~config:Network.Config.(default |> with_mrai_of (fun _ -> mrai)) g in
    Network.originate net 3 victim;
    ignore (Network.run net);
    List.map
      (fun asn ->
        Bgp.As_path.length
          (Option.get (Network.best_route net asn victim)).Bgp.Route.as_path)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "MRAI does not change the outcome" (run 0.0)
    (run 30.0)

(* link state is keyed on the normalised endpoint pair ({!Asn.compare}
   order), so every operation must see the same link regardless of the
   direction it names the endpoints in *)
let test_link_state_symmetric () =
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3) ] in
  let net = Network.make g in
  let a = Asn.make 1 and b = Asn.make 2 in
  Alcotest.(check bool) "up initially" true (Network.link_is_up net a b);
  Network.fail_link_now net a b;
  Alcotest.(check bool) "down as (a,b)" false (Network.link_is_up net a b);
  Alcotest.(check bool) "down as (b,a)" false (Network.link_is_up net b a);
  Alcotest.(check bool) "other link untouched" true
    (Network.link_is_up net (Asn.make 2) (Asn.make 3));
  (* restore named the other way round must repair the same link *)
  Network.restore_link_now net b a;
  Alcotest.(check bool) "restored" true (Network.link_is_up net a b);
  let imp = Network.impairment ~loss:0.5 () in
  Network.impair_link net ~rng:(Mutil.Rng.of_int 7) a b imp;
  Alcotest.(check bool) "impairment visible as (b,a)" true
    (Network.link_impairment net b a = Some imp);
  Network.clear_link_impairment net b a;
  Alcotest.(check bool) "impairment cleared via (a,b)" true
    (Network.link_impairment net a b = None)

(* the latency of the session from [a] to [b], read off a network of the
   two: [a]'s announcement is the only message, so the run ends when it
   arrives *)
let link_delay a b =
  let net = Network.make (Topology.As_graph.of_edges [ (a, b) ]) in
  Network.originate net a victim;
  ignore (Network.run net);
  Sim.Engine.now (Network.engine net)

let test_default_link_delay_stable () =
  let delay = link_delay in
  List.iter
    (fun (a, b) ->
      let a = Asn.make a and b = Asn.make b in
      let d = delay a b in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "delay %d->%d stable across calls" (Asn.to_int a)
           (Asn.to_int b))
        d (delay a b);
      Alcotest.(check bool) "within [1, 1.25)" true (d >= 1.0 && d < 1.25))
    [ (1, 2); (2, 1); (7, 63); (1000, 4); (4, 1000) ]

(* Session churn around a router with five peers (AS 1): after each
   scripted fault and a run to quiescence, on every established session
   the last UPDATE the tap saw since the session came up is what the
   receiver's Adj-RIB-In holds under the sender, and that is the
   sender's best route as it exports it.  A message handed to the wrong
   router or filed under the wrong slot breaks the first; an Adj-RIB-Out
   slot that outlived its session (so the table exchange skips a route)
   breaks the second. *)
let churn_graph =
  Topology.As_graph.of_edges
    [ (1, 2); (1, 3); (1, 4); (1, 5); (1, 7); (2, 3); (3, 4); (4, 5); (5, 6); (2, 6); (6, 7) ]

let test_slots_survive_churn ~mrai () =
  let p2 = Prefix.of_string "10.0.0.0/8" in
  let net =
    Network.make ~config:Network.Config.(default |> with_mrai_of (fun _ -> mrai)) churn_graph
  in
  let last = Hashtbl.create 64 in
  Network.set_update_tap net
    (Some
       (fun ~time:_ ~src ~dst update ->
         Hashtbl.replace last (src, dst, Update.prefix update) update));
  (* what a session carried before it went down is void *)
  let forget pred =
    Hashtbl.filter_map_inplace
      (fun (src, dst, _) u -> if pred src dst then None else Some u)
      last
  in
  let session a b (src, dst) = (src = a && dst = b) || (src = b && dst = a) in
  let held ~src ~dst prefix =
    List.find_opt
      (fun r -> Asn.equal r.Bgp.Route.learned_from src)
      (let rib = Router.rib (Network.router net dst) in
       Bgp.Rib.candidates (Bgp.Rib.entry rib prefix))
  in
  let check step =
    Alcotest.(check bool) (step ^ ": quiescent") true (Network.run net = Sim.Engine.Quiescent);
    List.iter
      (fun (a, b) ->
        List.iter
          (fun (src, dst) ->
            if Network.link_is_up net src dst && Network.router_is_up net src
               && Network.router_is_up net dst
            then
              List.iter
                (fun prefix ->
                  let expected =
                    match Hashtbl.find_opt last (src, dst, prefix) with
                    | Some { Update.payload = Update.Announce r; _ }
                      when not (Bgp.As_path.contains r.Bgp.Route.as_path dst) ->
                      Some (Bgp.Route.received ~from:src r)
                    | Some _ | None -> None
                  in
                  let exported =
                    match Network.best_route net src prefix with
                    | Some r
                      when Bgp.As_path.length r.Bgp.Route.as_path = 0
                           || not (Asn.equal r.Bgp.Route.learned_from dst) ->
                      let r = Bgp.Route.advertised_by src r in
                      if Bgp.As_path.contains r.Bgp.Route.as_path dst then None
                      else Some (Bgp.Route.received ~from:src r)
                    | Some _ | None -> None
                  in
                  let same a b =
                    match (a, b) with
                    | None, None -> true
                    | Some a, Some b -> Bgp.Route.equal a b
                    | _ -> false
                  in
                  if not (same exported expected) then
                    Alcotest.failf "%s: AS%d last sent AS%d %s for %s, its best route exports as %s"
                      step src dst
                      (match expected with Some r -> Bgp.Route.to_string r | None -> "nothing")
                      (Prefix.to_string prefix)
                      (match exported with Some r -> Bgp.Route.to_string r | None -> "nothing");
                  match (expected, held ~src ~dst prefix) with
                  | None, None -> ()
                  | Some e, Some h when Bgp.Route.equal e h -> ()
                  | _, got ->
                    Alcotest.failf "%s: AS%d holds %s from AS%d for %s, last sent %s" step dst
                      (match got with Some r -> Bgp.Route.to_string r | None -> "nothing")
                      src (Prefix.to_string prefix)
                      (match expected with
                      | Some r -> Bgp.Route.to_string r
                      | None -> "nothing"))
                [ victim; p2 ])
          [ (a, b); (b, a) ])
      (Topology.As_graph.edges churn_graph)
  in
  let fail a b =
    forget (fun src dst -> session a b (src, dst));
    Network.fail_link_now net a b
  in
  let crash x =
    forget (fun src dst -> src = x || dst = x);
    Network.crash_router_now net x
  in
  Network.originate net 6 victim;
  Network.originate net 3 p2;
  check "initial";
  fail 1 3;
  check "1-3 down";
  fail 1 2;
  check "1-2 down";
  Network.restore_link_now net 1 3;
  check "1-3 up";
  crash 1;
  check "1 crashed";
  Network.restore_link_now net 1 2;
  check "1-2 repaired under the crash";
  Network.restart_router_now net 1;
  check "1 restarted";
  crash 4;
  fail 1 5;
  check "4 crashed, 1-5 down";
  Network.restart_router_now net 4;
  check "4 restarted";
  Network.restore_link_now net 1 5;
  check "1-5 up";
  fail 1 7;
  crash 3;
  check "1-7 down, 3 crashed";
  Network.restart_router_now net 3;
  Network.restore_link_now net 1 7;
  check "all up again"

let () =
  Alcotest.run "router_network"
    [
      ( "router",
        [
          Alcotest.test_case "originate advertises" `Quick
            test_originate_advertises_to_all_peers;
          Alcotest.test_case "loop detection" `Quick test_loop_detection;
          Alcotest.test_case "loop implicit withdraw" `Quick
            test_loop_detection_implicit_withdraw;
          Alcotest.test_case "split horizon" `Quick test_split_horizon;
          Alcotest.test_case "duplicate suppression" `Quick
            test_no_duplicate_advertisements;
          Alcotest.test_case "better route replaces" `Quick test_better_route_replaces;
          Alcotest.test_case "withdraw falls back" `Quick test_withdraw_falls_back;
          Alcotest.test_case "validator hook" `Quick test_validator_filters;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "create validates peers" `Quick test_create_validates_peers;
          Alcotest.test_case "unknown peer refused" `Quick test_unknown_peer_refused;
        ] );
      ( "network",
        [
          Alcotest.test_case "line convergence" `Quick test_network_line_convergence;
          Alcotest.test_case "ring shortest side" `Quick
            test_network_ring_prefers_short_side;
          Alcotest.test_case "withdraw ripples" `Quick test_network_withdraw_ripples;
          Alcotest.test_case "withdraw reaches every AS" `Quick
            test_withdraw_origin_reaches_every_as;
          Alcotest.test_case "withdraw reselects second origin" `Quick
            test_withdraw_origin_reselects_second_origin;
          Alcotest.test_case "withdraw keeps other prefixes" `Quick
            test_withdraw_origin_keeps_other_prefixes;
          Alcotest.test_case "two-origin anycast" `Quick test_network_two_origins_anycast;
          Alcotest.test_case "paper topologies converge" `Slow
            test_network_converges_on_paper_topologies;
          Alcotest.test_case "paths are shortest" `Slow
            test_network_path_lengths_match_bfs;
          Alcotest.test_case "MRAI invariance" `Quick test_network_mrai_converges_same;
          Alcotest.test_case "configured make" `Quick test_configured_make;
          Alcotest.test_case "link state symmetric" `Quick
            test_link_state_symmetric;
          Alcotest.test_case "link delay stable" `Quick
            test_default_link_delay_stable;
          Alcotest.test_case "slots survive session churn" `Quick
            (test_slots_survive_churn ~mrai:0.0);
          Alcotest.test_case "slots survive session churn, MRAI" `Quick
            (test_slots_survive_churn ~mrai:5.0);
        ] );
    ]
