(* Tests for the attack library: attacker models and scenario execution,
   including the core soundness properties of the paper's mechanism. *)

open Net
module A = Attack.Attacker
module S = Attack.Scenario

let victim = Testutil.victim

let test_attacker_forgeries () =
  let legit = Asn.Set.of_list [ 1; 2 ] in
  let full = A.make ~forgery:A.Forge_full_list (Asn.make 666) in
  Alcotest.check Testutil.asn_set_testable "full forgery = legit + self"
    (Asn.Set.of_list [ 1; 2; 666 ])
    (Option.get (Moas.Moas_list.decode (A.communities full ~legit_list:legit)));
  let self_only = A.make ~forgery:A.Claim_self_only (Asn.make 666) in
  Alcotest.check Testutil.asn_set_testable "self-only list"
    (Asn.Set.singleton 666)
    (Option.get (Moas.Moas_list.decode (A.communities self_only ~legit_list:legit)));
  let bare = A.make ~forgery:A.No_list (Asn.make 666) in
  Alcotest.(check bool) "no list at all" true
    (Bgp.Community.Set.is_empty (A.communities bare ~legit_list:legit))

let test_attacker_target_override () =
  let sub, _ = Prefix.split victim in
  let a = A.make ~target_override:sub (Asn.make 666) in
  Alcotest.check Testutil.prefix_testable "sub-prefix announced" sub
    (A.announced_prefix a ~victim);
  let plain = A.make (Asn.make 666) in
  Alcotest.check Testutil.prefix_testable "default = victim prefix" victim
    (A.announced_prefix plain ~victim)

(* scenario construction validation *)

let line_graph = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ]

let test_scenario_validation () =
  let attacker = A.make (Asn.make 3) in
  Alcotest.check_raises "origin = attacker rejected"
    (Invalid_argument "Scenario.make: an attacker is also a legitimate origin")
    (fun () ->
      ignore
        (S.make ~graph:line_graph ~victim_prefix:victim ~legit_origins:[ 3 ]
           ~attackers:[ attacker ] ()));
  Alcotest.check_raises "unknown AS rejected"
    (Invalid_argument "Scenario.make: AS99 is not in the topology") (fun () ->
      ignore
        (S.make ~graph:line_graph ~victim_prefix:victim ~legit_origins:[ 99 ]
           ~attackers:[] ()));
  Alcotest.check_raises "no origin rejected"
    (Invalid_argument "Scenario.make: no legitimate origin") (fun () ->
      ignore
        (S.make ~graph:line_graph ~victim_prefix:victim ~legit_origins:[]
           ~attackers:[] ()))

let run ?(deployment = Moas.Deployment.Disabled) ?(attackers = []) ?(origins = [ 1 ])
    ?(dropper = 0.0) () =
  let scenario =
    S.make ~deployment ~community_dropper_fraction:dropper ~graph:line_graph
      ~victim_prefix:victim ~legit_origins:origins
      ~attackers:(List.map (fun a -> A.make (Asn.make a)) attackers)
      ()
  in
  Testutil.run_scenario scenario

let test_benign_scenario () =
  let o = run () in
  Alcotest.(check (float 0.0)) "nobody adopts anything" 0.0 o.S.fraction_adopting;
  Alcotest.(check bool) "converged" true o.S.converged;
  Alcotest.(check int) "no alarm" 0 o.S.alarm_count

let test_attack_without_detection () =
  (* attacker at 5, origin at 1 on a line: ASes 4 and 5's side adopt *)
  let o = run ~attackers:[ 5 ] () in
  Alcotest.(check int) "eligible excludes the attacker" 4 o.S.eligible;
  Alcotest.(check bool) "someone adopts" true (o.S.fraction_adopting > 0.0);
  Alcotest.(check bool) "AS4 adopted (adjacent to attacker)" true
    (Asn.Set.mem (Asn.make 4) o.S.adopters);
  Alcotest.(check bool) "AS2 kept the valid route" false
    (Asn.Set.mem (Asn.make 2) o.S.adopters)

let test_attack_with_full_detection () =
  let o = run ~deployment:Moas.Deployment.Full ~attackers:[ 5 ] () in
  (* on a line every non-attacker still holds its valid route when the
     attack starts, so detection is complete *)
  Alcotest.(check (float 0.0)) "nobody adopts" 0.0 o.S.fraction_adopting;
  Alcotest.(check bool) "alarms fired" true (o.S.alarm_count > 0);
  Alcotest.(check bool) "detected" true o.S.detected;
  Alcotest.(check bool) "oracle consulted" true (o.S.oracle_queries > 0)

let test_two_origins_valid_moas_no_alarm () =
  let o = run ~deployment:Moas.Deployment.Full ~origins:[ 1; 5 ] () in
  Alcotest.(check int) "valid MOAS raises no alarm" 0 o.S.alarm_count;
  Alcotest.(check (float 0.0)) "nothing adopted" 0.0 o.S.fraction_adopting

let test_two_origins_attacked () =
  let o =
    run ~deployment:Moas.Deployment.Full ~origins:[ 1; 5 ] ~attackers:[ 3 ] ()
  in
  Alcotest.(check bool) "conflict detected" true o.S.detected;
  Alcotest.(check (float 0.0)) "protected" 0.0 o.S.fraction_adopting

let test_dropper_fraction_recorded () =
  let o = run ~attackers:[ 5 ] ~dropper:0.5 () in
  Alcotest.(check bool) "droppers selected" true
    (Asn.Set.cardinal o.S.droppers > 0);
  Alcotest.(check bool) "attacker never a dropper" true
    (not (Asn.Set.mem (Asn.make 5) o.S.droppers))

let test_deterministic_outcomes () =
  let a = run ~deployment:(Moas.Deployment.Fraction 0.5) ~attackers:[ 5 ] () in
  let b = run ~deployment:(Moas.Deployment.Fraction 0.5) ~attackers:[ 5 ] () in
  Alcotest.check Testutil.asn_set_testable "same seed, same adopters"
    a.S.adopters b.S.adopters;
  Alcotest.check Testutil.asn_set_testable "same capable set" a.S.capable
    b.S.capable

let test_random_scenario_wellformed () =
  let t = Topology.Paper_topologies.topology_46 () in
  let rng = Mutil.Rng.of_int 8 in
  let s =
    S.random rng ~graph:t.Topology.Paper_topologies.graph
      ~stub:t.Topology.Paper_topologies.stub ~n_origins:2 ~n_attackers:5
      ~deployment:Moas.Deployment.Full
  in
  Alcotest.(check int) "two origins" 2 (List.length s.S.legit_origins);
  Alcotest.(check int) "five attackers" 5 (List.length s.S.attackers);
  (* origins drawn from stubs *)
  List.iter
    (fun o ->
      Alcotest.(check bool) "origin is a stub" true
        (Asn.Set.mem o t.Topology.Paper_topologies.stub))
    s.S.legit_origins

(* the paper's central soundness property, as a randomized test over the
   46-AS topology: with full deployment, any AS that still holds a valid
   route never adopts a forged one *)
let prop_full_deployment_soundness =
  Testutil.qtest ~count:25 "full MOAS beats normal BGP on random scenarios"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 12))
    (fun (seed, n_attackers) ->
      let t = Topology.Paper_topologies.topology_46 () in
      let make deployment =
        let rng = Mutil.Rng.of_int seed in
        S.random rng ~graph:t.Topology.Paper_topologies.graph
          ~stub:t.Topology.Paper_topologies.stub ~n_origins:1 ~n_attackers
          ~deployment
      in
      let normal = Testutil.run_scenario ~seed (make Moas.Deployment.Disabled) in
      let full = Testutil.run_scenario ~seed (make Moas.Deployment.Full) in
      normal.S.converged && full.S.converged
      && full.S.fraction_adopting <= normal.S.fraction_adopting +. 1e-9)

let prop_partial_between =
  Testutil.qtest ~count:10 "half deployment sits between normal and full"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let t = Topology.Paper_topologies.topology_46 () in
      let run deployment =
        let rng = Mutil.Rng.of_int seed in
        (Testutil.run_scenario ~seed
           (S.random rng ~graph:t.Topology.Paper_topologies.graph
              ~stub:t.Topology.Paper_topologies.stub ~n_origins:1
              ~n_attackers:8 ~deployment))
          .S.fraction_adopting
      in
      let normal = run Moas.Deployment.Disabled in
      let half = run (Moas.Deployment.Fraction 0.5) in
      let full = run Moas.Deployment.Full in
      full <= half +. 1e-9 && half <= normal +. 1e-9)

(* ---------------- simulator allocation budget ---------------- *)

(* Minor words allocated per engine event by one fixed attack scenario on
   a generated ~200-AS internet, and by Network.make per router with a
   detector on every router: the two costs a scenario pays, its messages
   and its routers.  Measured at jobs=1 only: [Gc.minor_words] counts the
   calling domain's allocations.  A network built over a graph already
   wired on this domain reuses the wiring, as every scenario after the
   first does; the first build over a graph is budgeted apart. *)
let words_per_event_budget = 46.0 (* 40.3; 66.4 before the lean build, 118.3 before the slot wiring *)
let make_words_per_router_budget = 57.0 (* 49.9; 88.9 before the lean build *)
let first_make_words_per_router_budget = 110.0 (* 96.2; 142.1 before the lean build *)

let budget_internet =
  Topology.Generate.generate (Mutil.Rng.of_int 0xA110C)
    {
      Topology.Generate.default_params with
      Topology.Generate.tier1_count = 4;
      tier2_count = 20;
      stub_count = 176;
    }

let test_sim_allocation_budget () =
  let graph = budget_internet.Topology.Generate.graph in
  let scenario =
    S.random (Mutil.Rng.of_int 11) ~graph ~stub:budget_internet.Topology.Generate.stub
      ~n_origins:1 ~n_attackers:5 ~deployment:(Moas.Deployment.Fraction 0.5)
  in
  let metrics = Obs.Registry.create () in
  let counted = S.run ~metrics (Mutil.Rng.of_int 12) scenario in
  let events = Obs.Registry.sum_counters metrics "sim_events_executed" in
  Alcotest.(check bool) "the attack converges and is detected" true
    (counted.S.converged && counted.S.detected);
  let w0 = Gc.minor_words () in
  let outcome = S.run (Mutil.Rng.of_int 12) scenario in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  Alcotest.(check int) "same run without a registry" counted.S.updates_sent
    outcome.S.updates_sent;
  if per_event > words_per_event_budget then
    Alcotest.failf "a scenario allocates %.1f minor words per event, budget %.1f" per_event
      words_per_event_budget;
  let oracle = Moas.Origin_verification.create () in
  let config =
    Bgp.Network.Config.(
      default
      |> with_validator_of (fun asn ->
             Some
               (Moas.Detector.validator
                  (Moas.Detector.create ~backend:(Moas.Detector.Oracle oracle) ~self:asn ()))))
  in
  let per_router graph =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Bgp.Network.make ~config graph));
    (Gc.minor_words () -. w0) /. float_of_int (Topology.As_graph.node_count graph)
  in
  let again = per_router graph in
  if again > make_words_per_router_budget then
    Alcotest.failf "Network.make allocates %.1f words per router, budget %.1f" again
      make_words_per_router_budget;
  (* a graph equal to the first but not the same value is wired afresh *)
  let first = per_router (Topology.As_graph.induced graph (Topology.As_graph.nodes graph)) in
  if first > first_make_words_per_router_budget then
    Alcotest.failf "a first Network.make over a graph allocates %.1f words per router, budget %.1f"
      first first_make_words_per_router_budget

let () =
  Alcotest.run "attack"
    [
      ( "attacker",
        [
          Alcotest.test_case "forgeries" `Quick test_attacker_forgeries;
          Alcotest.test_case "target override" `Quick test_attacker_target_override;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "benign" `Quick test_benign_scenario;
          Alcotest.test_case "attack, normal BGP" `Quick test_attack_without_detection;
          Alcotest.test_case "attack, full detection" `Quick
            test_attack_with_full_detection;
          Alcotest.test_case "valid MOAS quiet" `Quick
            test_two_origins_valid_moas_no_alarm;
          Alcotest.test_case "two origins attacked" `Quick test_two_origins_attacked;
          Alcotest.test_case "droppers recorded" `Quick test_dropper_fraction_recorded;
          Alcotest.test_case "deterministic" `Quick test_deterministic_outcomes;
          Alcotest.test_case "random scenario" `Quick test_random_scenario_wellformed;
        ] );
      ( "properties",
        [ prop_full_deployment_soundness; prop_partial_between ] );
      ( "allocation",
        [
          Alcotest.test_case "scenario and network build budget" `Quick
            test_sim_allocation_budget;
        ] );
    ]
