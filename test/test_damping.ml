(* Tests for route-flap damping (RFC 2439) and its interaction with a
   flapping hijacker. *)

open Net
module Router = Bgp.Router
module Network = Bgp.Network
module Update = Bgp.Update

let victim = Testutil.victim

(* fast-decaying parameters so tests run on small clocks *)
let damping =
  {
    Router.penalty_withdraw = 1000.0;
    penalty_update = 500.0;
    suppress_threshold = 2000.0;
    reuse_threshold = 750.0;
    half_life = 10.0;
  }

let wired_router ?damping () =
  let router = Router.create ~peers:(Testutil.peers [ 2; 3 ]) ?damping (Asn.make 1) in
  let scheduled = ref [] in
  Router.set_transport router
    ~send:(fun ~peer:_ ~slot:_ _ -> ())
    ~schedule:(fun ~delay k -> scheduled := (delay, k) :: !scheduled);
  (router, scheduled)

let announce ?(from = 2) now router =
  Router.handle_update router ~now
    (Update.announce ~sender:(Asn.make from) (Testutil.route ~from [ from; 10 ]))

let withdraw ?(from = 2) now router =
  Router.handle_update router ~now
    (Update.withdraw ~sender:(Asn.make from) victim)

let test_no_damping_by_default () =
  let router, _ = wired_router () in
  announce 1.0 router;
  withdraw 2.0 router;
  announce 3.0 router;
  withdraw 4.0 router;
  announce 5.0 router;
  Alcotest.(check bool) "route still usable" true (Router.best router victim <> None);
  Alcotest.(check (float 0.0)) "no penalty tracked" 0.0
    (Router.flap_penalty router ~peer:(Asn.make 2) victim ~now:5.0)

let test_first_announcement_is_free () =
  let router, _ = wired_router ~damping () in
  announce 1.0 router;
  Alcotest.(check (float 0.0)) "birth is not a flap" 0.0
    (Router.flap_penalty router ~peer:(Asn.make 2) victim ~now:1.0);
  Alcotest.(check bool) "route installed" true (Router.best router victim <> None)

let test_penalty_accumulates_and_decays () =
  let router, _ = wired_router ~damping () in
  announce 1.0 router;
  withdraw 2.0 router;
  let p = Router.flap_penalty router ~peer:(Asn.make 2) victim ~now:2.0 in
  Alcotest.(check (float 1.0)) "withdrawal penalty" 1000.0 p;
  (* one half-life later the penalty halved *)
  let p = Router.flap_penalty router ~peer:(Asn.make 2) victim ~now:12.0 in
  Alcotest.(check (float 5.0)) "decayed penalty" 500.0 p

let test_suppression_after_flaps () =
  let router, scheduled = wired_router ~damping () in
  announce 1.0 router;
  withdraw 1.5 router;  (* +1000 *)
  announce 2.0 router;  (* +500 *)
  withdraw 2.5 router;  (* +1000 -> over 2000: suppressed *)
  announce 3.0 router;
  Alcotest.(check bool) "suppressed" true
    (Router.is_suppressed router ~peer:(Asn.make 2) victim ~now:3.0);
  Alcotest.(check bool) "flapping route not selected" true
    (Router.best router victim = None);
  Alcotest.(check bool) "reuse re-evaluation scheduled" true
    (List.length !scheduled > 0)

let test_reuse_after_decay () =
  let router, _ = wired_router ~damping () in
  announce 1.0 router;
  withdraw 1.5 router;
  announce 2.0 router;
  withdraw 2.5 router;
  announce 3.0 router;
  Alcotest.(check bool) "suppressed at first" true
    (Router.is_suppressed router ~peer:(Asn.make 2) victim ~now:3.0);
  (* penalty ~2500 at t=3; below reuse (750) after ~2 half-lives *)
  let later = 3.0 +. (3.0 *. damping.Router.half_life) in
  Alcotest.(check bool) "reusable after decay" false
    (Router.is_suppressed router ~peer:(Asn.make 2) victim ~now:later);
  Router.refresh router ~now:later victim;
  Alcotest.(check bool) "route reinstated" true (Router.best router victim <> None)

let test_damping_is_per_peer () =
  let router, _ = wired_router ~damping () in
  announce ~from:2 1.0 router;
  withdraw ~from:2 1.5 router;
  announce ~from:2 2.0 router;
  withdraw ~from:2 2.5 router;
  (* peer 3's stable route is unaffected by peer 2's flapping *)
  announce ~from:3 3.0 router;
  Alcotest.(check bool) "peer 3 not suppressed" false
    (Router.is_suppressed router ~peer:(Asn.make 3) victim ~now:3.0);
  Alcotest.(check bool) "stable route selected" true
    (Router.best router victim <> None)

let test_validation () =
  Alcotest.check_raises "reuse above suppress rejected"
    (Invalid_argument "Router.create: damping reuse must be below suppress")
    (fun () ->
      ignore
        (Router.create
           ~damping:{ damping with Router.reuse_threshold = 9999.0 }
           (Asn.make 1)))

let test_flapping_hijacker_gets_damped () =
  (* a hijacker that flaps its bogus announcement is silenced by damping
     for as long as its penalty stays above the reuse threshold - even
     where MOAS detection is not deployed *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let net = Network.make ~config:Network.Config.(default |> with_damping_of (fun _ -> Some damping)) g in
  Network.originate ~at:0.0 net 1 victim;
  (* AS4 flaps the hijack rapidly *)
  List.iter
    (fun (at, on) ->
      if on then Network.originate ~at net 4 victim
      else Network.withdraw ~at net 4 victim)
    [ (50.0, true); (52.0, false); (54.0, true); (56.0, false); (58.0, true) ];
  (* observe the network shortly after the last flap, before the penalty
     decays to the reuse threshold *)
  ignore (Sim.Engine.run ~until:65.0 (Network.engine net));
  Alcotest.(check bool) "AS3 suppressed the flapping route" true
    (Router.is_suppressed (Network.router net 3) ~peer:(Asn.make 4) victim
       ~now:65.0);
  (match Network.best_origin net 3 victim with
  | Some origin ->
    Alcotest.(check int) "valid origin wins while damped" 1 (Asn.to_int origin)
  | None -> Alcotest.fail "AS3 lost all routes");
  (* once the penalty decays, the (still bogus, but now stable) route is
     reinstated: damping rate-limits churn, it is no defence on its own *)
  ignore (Network.run net);
  match Network.best_origin net 3 victim with
  | Some origin ->
    Alcotest.(check int) "hijack returns after reuse" 4 (Asn.to_int origin)
  | None -> Alcotest.fail "AS3 lost all routes after reuse"

let () =
  Alcotest.run "damping"
    [
      ( "mechanics",
        [
          Alcotest.test_case "off by default" `Quick test_no_damping_by_default;
          Alcotest.test_case "birth is free" `Quick test_first_announcement_is_free;
          Alcotest.test_case "accumulate + decay" `Quick test_penalty_accumulates_and_decays;
          Alcotest.test_case "suppression" `Quick test_suppression_after_flaps;
          Alcotest.test_case "reuse" `Quick test_reuse_after_decay;
          Alcotest.test_case "per peer" `Quick test_damping_is_per_peer;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "attack interplay",
        [
          Alcotest.test_case "flapping hijacker damped" `Quick
            test_flapping_hijacker_gets_damped;
        ] );
    ]
