(* Outcome pins: the MD5 of every Attack.Scenario outcome over a fixed
   matrix of scenarios on a small generated internet.  Figure tolerances
   in test_golden absorb drifts below 0.0005; these pins catch any change
   at all in what the simulation computes — adoption fraction, alarms,
   UPDATE count, convergence time, the adopter set and the first alarm.
   The verdict pins cover what the detectors decide beyond that: the
   MOASRR lookups and the set of ASes that alarmed.  A deliberate
   behaviour change re-pins from the failure output. *)

open Net
module A = Attack.Attacker
module S = Attack.Scenario

let internet =
  Topology.Generate.generate (Mutil.Rng.of_int 0x5EED)
    {
      Topology.Generate.tier1_count = 3;
      tier2_count = 8;
      tier2_uplinks = 2;
      tier2_peering_prob = 0.2;
      stub_count = 30;
      stub_multihome_prob = 0.4;
    }

let graph = internet.Topology.Generate.graph
let stubs = Asn.Set.elements internet.Topology.Generate.stub
let transit = Asn.Set.elements (Topology.Generate.transit_ases internet)
let victim = Prefix.of_string "192.0.2.0/24"

(* two stub origins, one transit and one stub attacker *)
let origin_a = List.nth stubs 0
let origin_b = List.nth stubs 1
let attacker_ases = [ List.nth transit 3; List.nth stubs 17 ]

let forgeries =
  [ A.Forge_full_list; A.Claim_self_only; A.No_list; A.Impersonate origin_a ]

let policies = [ S.Shortest_path; S.Gao_rexford_inferred ]

let deployments =
  [ Moas.Deployment.Disabled; Moas.Deployment.Full; Moas.Deployment.Fraction 0.5 ]

let float_opt = function None -> "-" | Some f -> Printf.sprintf "%h" f

let asns s = String.concat "," (List.map string_of_int (Asn.Set.elements s))

(* the outcome fields the pin covers, in a fixed textual form *)
let line (o : S.outcome) =
  Printf.sprintf "%h;%d;%d;%h;%s;%s" o.S.fraction_adopting o.S.alarm_count
    o.S.updates_sent o.S.converged_at (asns o.S.adopters)
    (float_opt o.S.first_alarm_at)

let scenario ?(policy_mode = S.Shortest_path) ?(deployment = Moas.Deployment.Full)
    ?(origins = [ origin_a ]) ?(attach_list_always = false) ?(dropper = 0.0)
    ?(mrai = 0.0) ?target_override forgery =
  S.make ~deployment ~attach_list_always ~community_dropper_fraction:dropper ~mrai
    ~policy_mode ~graph ~victim_prefix:victim ~legit_origins:origins
    ~attackers:(List.map (A.make ~forgery ?target_override) attacker_ases)
    ()

(* the detectors' verdicts: MOASRR lookups and the ASes that alarmed *)
let verdict_line (o : S.outcome) =
  Printf.sprintf "%d;%s" o.S.oracle_queries (asns o.S.alarming_ases)

let run ?prepare s = S.run ?prepare (Mutil.Rng.of_int 7) s

(* each arm runs once; its outcome pin and its verdict pin both read it *)
let once arm =
  let outcomes = lazy (arm ()) in
  fun () -> Lazy.force outcomes

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* policies x deployments x forgeries x {one origin, two origins, one
   origin with its list attached anyway} *)
let matrix =
  once @@ fun () ->
  List.concat_map
    (fun policy_mode ->
      List.concat_map
        (fun deployment ->
          List.concat_map
            (fun forgery ->
              [
                run (scenario ~policy_mode ~deployment forgery);
                run
                  (scenario ~policy_mode ~deployment ~origins:[ origin_a; origin_b ]
                     forgery);
                run (scenario ~policy_mode ~deployment ~attach_list_always:true forgery);
              ])
            forgeries)
        deployments)
    policies

let per_policy f =
  List.concat_map (fun policy_mode -> List.map (f policy_mode) forgeries) policies

let droppers =
  once @@ fun () ->
  per_policy (fun policy_mode forgery ->
      run (scenario ~policy_mode ~origins:[ origin_a; origin_b ] ~dropper:0.3 forgery))

let mrai =
  once @@ fun () ->
  per_policy (fun policy_mode forgery ->
      run (scenario ~policy_mode ~origins:[ origin_a; origin_b ] ~mrai:2.0 forgery))

let subprefix =
  once @@ fun () ->
  let sub, _ = Prefix.split victim in
  per_policy (fun policy_mode forgery ->
      run (scenario ~policy_mode ~target_override:sub forgery))

(* one link failing and coming back across the attack, and one transit
   router crashing and restarting *)
let faults =
  once @@ fun () ->
  let a, b = List.hd (Topology.As_graph.edges graph) in
  let plan =
    Faults.Fault_plan.(
      union
        (fail ~duration:20.0 ~at:52.0 (link a b))
        (fail ~duration:15.0 ~at:51.0 (router (List.nth transit 0))))
  in
  let prepare net =
    ignore (Faults.Injector.arm ~rng:(Mutil.Rng.of_int 11) net plan)
  in
  per_policy (fun policy_mode forgery ->
      run ~prepare (scenario ~policy_mode ~origins:[ origin_a; origin_b ] forgery))

(* Scenario has no damping or community-watch knob, so these two arms
   build the same shape on Bgp.Network directly and report the same
   fields: adoption over non-attackers, alarms, UPDATEs, convergence
   time, adopters and the first alarm. *)
let network_arm ?(policy_of = fun _ -> Bgp.Policy.default) ~damping ~detector_of
    ~prepare () =
  let detectors = ref [] in
  let validator_of asn =
    let d = detector_of asn in
    detectors := d :: !detectors;
    Some (Moas.Detector.validator d)
  in
  let config =
    Bgp.Network.Config.(
      default |> with_policy_of policy_of
      |> with_validator_of validator_of
      |> with_damping_of (fun _ -> damping))
  in
  let net = Bgp.Network.make ~config graph in
  let legit = Moas.Moas_list.encode (Asn.Set.of_list [ origin_a; origin_b ]) in
  List.iter
    (fun o -> Bgp.Network.originate ~communities:legit net o victim)
    [ origin_a; origin_b ];
  List.iter
    (fun asn -> Bgp.Network.originate ~at:50.0 net asn victim)
    attacker_ases;
  prepare net;
  ignore (Bgp.Network.run net);
  let attackers = Asn.Set.of_list attacker_ases in
  let eligible = Asn.Set.diff (Topology.As_graph.nodes graph) attackers in
  let adopters =
    Asn.Set.filter
      (fun asn ->
        match Bgp.Network.best_origin net asn victim with
        | Some o -> Asn.Set.mem o attackers
        | None -> false)
      eligible
  in
  let alarms = List.concat_map Moas.Detector.alarms !detectors in
  let first_alarm_at =
    List.fold_left
      (fun acc a ->
        let t = a.Moas.Alarm.time in
        match acc with Some e when e <= t -> acc | _ -> Some t)
      None alarms
  in
  Printf.sprintf "%h;%d;%d;%h;%s;%s"
    (float_of_int (Asn.Set.cardinal adopters)
    /. float_of_int (Asn.Set.cardinal eligible))
    (List.length alarms)
    (Bgp.Network.total_updates_sent net)
    (Sim.Engine.now (Bgp.Network.engine net))
    (asns adopters) (float_opt first_alarm_at)

(* a link next to the first origin flapping fast enough to be damped *)
let flapping net =
  let nbr = Asn.Set.min_elt (Topology.As_graph.neighbors graph origin_a) in
  let plan =
    Faults.Fault_plan.flap ~start:5.0 ~period:6.0 ~down_for:2.0 ~until:40.0
      (Faults.Fault_plan.link origin_a nbr)
  in
  ignore (Faults.Injector.arm ~rng:(Mutil.Rng.of_int 13) net plan)

let damping () =
  let oracle = Moas.Origin_verification.create () in
  Moas.Origin_verification.register oracle victim
    (Asn.Set.of_list [ origin_a; origin_b ]);
  [
    network_arm ~damping:(Some Bgp.Router.default_damping)
      ~detector_of:(fun self ->
        Moas.Detector.create ~backend:(Moas.Detector.Oracle oracle) ~self ())
      ~prepare:flapping ();
    network_arm ~damping:(Some Bgp.Router.default_damping)
      ~detector_of:(fun self -> Moas.Detector.create ~self ())
      ~prepare:flapping ();
  ]

(* the community usage model tags routes, so the watch has dynamics to
   judge; the second arm also scrubs on every transit AS *)
let community () =
  let model ?scrub_fraction () =
    Bgp.Community_policy.make ?scrub_fraction ~seed:5L
      ~transit:(Topology.Generate.transit_ases internet)
      graph
  in
  let arm ?(warmup_until = 0.0) ~prepare model =
    network_arm ~policy_of:(Bgp.Community_policy.policy model) ~damping:None
      ~detector_of:(fun self ->
        Moas.Detector.create
          ~backend:
            (Moas.Detector.Community
               (Moas.Community_watch.create ~warmup_until ~self ()))
          ~check_self_consistency:false ~self ())
      ~prepare ()
  in
  [
    arm ~prepare:ignore (model ());
    arm ~warmup_until:10.0 ~prepare:flapping (model ~scrub_fraction:1.0 ());
  ]

let outcomes arm () = List.map line (arm ())
let verdicts arm () = List.map verdict_line (arm ())

let pins =
  [
    ( "policy x deployment x forgery x origins",
      outcomes matrix,
      "9b43bfe7186491fc84aed35ed98bb1f5" );
    ("community droppers", outcomes droppers, "19759a53c49f60c57db96bbb7531a181");
    ("mrai > 0", outcomes mrai, "8363c9d1d839bbceb3167b12614c4cd5");
    ("sub-prefix target", outcomes subprefix, "16bcf2f441b1d952bfa92005f544cdc9");
    ( "link fail/restore and router crash/restart",
      outcomes faults,
      "1178b5b495682c599888e0666a2c29b0" );
    ("route-flap damping", damping, "28eb2abb081bdc7ebaa1caf10e5cd823");
    ("community backend", community, "18f652a6927822e6a63415186ecb3568");
  ]

let verdict_pins =
  [
    ( "policy x deployment x forgery x origins",
      verdicts matrix,
      "51c331bae73ba56a70aeaef9629367b9" );
    ("community droppers", verdicts droppers, "4a77a82c4c12d80dab4a8ab4ac36f18b");
    ("mrai > 0", verdicts mrai, "3533bc7cf7b3309ba887d0cba4c67a0a");
    ("sub-prefix target", verdicts subprefix, "0f452bd9ff02d3bcc0c4b179c7d3bb70");
    ( "link fail/restore and router crash/restart",
      verdicts faults,
      "d9a0cf84957627745cdd2afd44961d9c" );
  ]

let test (name, lines, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let lines = lines () in
      let got = digest lines in
      if not (String.equal got expected) then
        Alcotest.failf "%s: digest %s, pinned %s; outcomes:\n%s" name got expected
          (String.concat "\n" lines))

let () =
  Alcotest.run "outcome_pins"
    [ ("outcome pins", List.map test pins); ("verdict pins", List.map test verdict_pins) ]
