open Net
module Rng = Mutil.Rng

type policy_mode =
  | Shortest_path
  | Gao_rexford of Topology.Relationships.t
  | Gao_rexford_inferred

type t = {
  graph : Topology.As_graph.t;
  victim_prefix : Prefix.t;
  legit_origins : Asn.t list;
  attackers : Attacker.t list;
  deployment : Moas.Deployment.t;
  attach_list_always : bool;
  community_dropper_fraction : float;
  valid_at : float;
  attack_at : float;
  mrai : float;
  policy_mode : policy_mode;
}

let make ?(deployment = Moas.Deployment.Disabled) ?(attach_list_always = false)
    ?(community_dropper_fraction = 0.0) ?(valid_at = 0.0) ?(attack_at = 50.0)
    ?(mrai = 0.0) ?(policy_mode = Shortest_path) ~graph ~victim_prefix
    ~legit_origins ~attackers () =
  if legit_origins = [] then invalid_arg "Scenario.make: no legitimate origin";
  let attacker_set =
    Asn.Set.of_list (List.map (fun a -> a.Attacker.asn) attackers)
  in
  let origin_set = Asn.Set.of_list legit_origins in
  if not (Asn.Set.is_empty (Asn.Set.inter attacker_set origin_set)) then
    invalid_arg "Scenario.make: an attacker is also a legitimate origin";
  List.iter
    (fun asn ->
      if not (Topology.As_graph.mem_node graph asn) then
        invalid_arg
          (Printf.sprintf "Scenario.make: %s is not in the topology"
             (Asn.to_string asn)))
    (legit_origins @ Asn.Set.elements attacker_set);
  if community_dropper_fraction < 0.0 || community_dropper_fraction > 1.0 then
    invalid_arg "Scenario.make: dropper fraction out of [0,1]";
  if attack_at < valid_at then
    invalid_arg "Scenario.make: attack before valid announcement";
  {
    graph;
    victim_prefix;
    legit_origins;
    attackers;
    deployment;
    attach_list_always;
    community_dropper_fraction;
    valid_at;
    attack_at;
    mrai;
    policy_mode;
  }

type outcome = {
  adopters : Asn.Set.t;
  eligible : int;
  fraction_adopting : float;
  alarm_count : int;
  alarming_ases : Asn.Set.t;
  detected : bool;
  first_alarm_at : float option;
  detection_latency : float option;
  converged_at : float;
  oracle_queries : int;
  updates_sent : int;
  converged : bool;
  capable : Asn.Set.t;
  droppers : Asn.Set.t;
}

let run ?(metrics = Obs.Registry.noop) ?prepare rng scenario =
  let nodes = Topology.As_graph.nodes scenario.graph in
  let attacker_set =
    Asn.Set.of_list (List.map (fun a -> a.Attacker.asn) scenario.attackers)
  in
  let legit_set = Asn.Set.of_list scenario.legit_origins in
  (* every AS but the attackers: the ASes that may deploy detection, and
     those whose adoption of a bogus route is counted *)
  let eligible_set = Asn.Set.diff nodes attacker_set in
  (* deployment and community-dropping assignments use independent child
     streams so that changing one knob never perturbs the other *)
  let capable =
    Moas.Deployment.capable_set (Rng.split_at rng 1) eligible_set
      scenario.deployment
  in
  let droppers =
    if scenario.community_dropper_fraction <= 0.0 then Asn.Set.empty
    else begin
      let candidates =
        Asn.Set.diff nodes (Asn.Set.union attacker_set legit_set)
      in
      let universe = Array.of_list (Asn.Set.elements candidates) in
      let count =
        int_of_float
          (Float.round
             (scenario.community_dropper_fraction
             *. float_of_int (Array.length universe)))
      in
      Asn.Set.of_list (Array.to_list (Rng.sample (Rng.split_at rng 2) universe count))
    end
  in
  let oracle = Moas.Origin_verification.create () in
  Moas.Origin_verification.register oracle scenario.victim_prefix legit_set;
  let detectors = Hashtbl.create 64 in
  let validator_of asn =
    if Asn.Set.mem asn capable then begin
      let detector =
        Moas.Detector.create ~backend:(Moas.Detector.Oracle oracle) ~metrics
          ~self:asn ()
      in
      Hashtbl.replace detectors asn detector;
      Some (Moas.Detector.validator detector)
    end
    else None
  in
  let base_policy_of =
    match scenario.policy_mode with
    | Shortest_path -> fun _ -> Bgp.Policy.default
    | Gao_rexford rels -> fun asn -> Bgp.Gao_rexford.policy rels ~self:asn
    | Gao_rexford_inferred ->
      let rels = Topology.Relationships.infer_by_degree scenario.graph in
      fun asn -> Bgp.Gao_rexford.policy rels ~self:asn
  in
  let policy_of asn =
    let base = base_policy_of asn in
    if Asn.Set.mem asn droppers then Bgp.Policy.drop_communities_on_export base
    else base
  in
  let network =
    Bgp.Network.make
      ~config:
        Bgp.Network.Config.(
          default |> with_policy_of policy_of
          |> with_validator_of validator_of
          |> with_mrai_of (fun _ -> scenario.mrai)
          |> with_metrics metrics)
      scenario.graph
  in
  (* legitimate origins: identical MOAS list on every announcement when the
     prefix is multi-origin (or always, if configured) *)
  let legit_communities =
    if List.length scenario.legit_origins > 1 || scenario.attach_list_always
    then Moas.Moas_list.encode legit_set
    else Bgp.Community.Set.empty
  in
  List.iter
    (fun origin ->
      Bgp.Network.originate ~at:scenario.valid_at
        ~communities:legit_communities network origin scenario.victim_prefix)
    scenario.legit_origins;
  (* attackers announce after the valid routes have spread *)
  List.iter
    (fun attacker ->
      let prefix =
        Attacker.announced_prefix attacker ~victim:scenario.victim_prefix
      in
      let communities = Attacker.communities attacker ~legit_list:legit_set in
      let as_path = Attacker.forged_path attacker in
      Bgp.Network.originate ~at:scenario.attack_at ~communities ~as_path
        network attacker.Attacker.asn prefix)
    scenario.attackers;
  (* environment hook: fault injection and other pre-run wiring (the
     robustness experiments arm a Faults.Injector here) *)
  (match prepare with Some f -> f network | None -> ());
  let outcome_state = Bgp.Network.run network in
  let converged = outcome_state = Sim.Engine.Quiescent in
  let adopters =
    Asn.Set.filter
      (fun asn ->
        match Bgp.Network.best_route network asn scenario.victim_prefix with
        | Some route ->
          (* a bogus best route either originates at an attacker or is an
             impersonation (recognisable by the signature marker) *)
          Asn.Set.mem (Bgp.Route.origin_as ~self:asn route) attacker_set
          || Bgp.Community.Set.mem Attacker.impersonation_marker
               route.Bgp.Route.communities
        | None -> false)
      eligible_set
  in
  let alarm_count, alarming_ases =
    Hashtbl.fold
      (fun asn detector (count, ases) ->
        let n = Moas.Detector.alarm_count detector in
        (count + n, if n > 0 then Asn.Set.add asn ases else ases))
      detectors (0, Asn.Set.empty)
  in
  let first_alarm_at =
    Hashtbl.fold
      (fun _ detector earliest ->
        List.fold_left
          (fun earliest alarm ->
            let time = alarm.Moas.Alarm.time in
            match earliest with
            | Some e when e <= time -> earliest
            | _ -> Some time)
          earliest
          (Moas.Detector.alarms detector))
      detectors None
  in
  let eligible = Asn.Set.cardinal eligible_set in
  if not (Obs.Registry.is_noop metrics) then begin
    (* network-wide aggregates alongside the per-AS series, so exports
       carry the headline numbers without client-side label summing *)
    let open Obs.Registry in
    Counter.add
      (counter metrics "bgp_updates_sent_total")
      (Bgp.Network.total_updates_sent network);
    Counter.add
      (counter metrics "bgp_updates_received_total")
      (Bgp.Network.total_updates_received network);
    Counter.add (counter metrics "moas_alarms_total") alarm_count;
    Counter.add
      (counter metrics "oracle_queries_total")
      (Moas.Origin_verification.query_count oracle)
  end;
  {
    adopters;
    eligible;
    fraction_adopting =
      (if eligible = 0 then 0.0
       else float_of_int (Asn.Set.cardinal adopters) /. float_of_int eligible);
    alarm_count;
    alarming_ases;
    detected = alarm_count > 0;
    first_alarm_at;
    detection_latency =
      Option.map (fun t -> t -. scenario.attack_at) first_alarm_at;
    converged_at = Sim.Engine.now (Bgp.Network.engine network);
    oracle_queries = Moas.Origin_verification.query_count oracle;
    updates_sent = Bgp.Network.total_updates_sent network;
    converged;
    capable;
    droppers;
  }

let victim_prefix_default = Prefix.of_string "192.0.2.0/24"

let random rng ~graph ~stub ~n_origins ~n_attackers ~deployment =
  let stub_pool = Array.of_list (Asn.Set.elements stub) in
  if n_origins <= 0 || n_origins > Array.length stub_pool then
    invalid_arg "Scenario.random: not enough stub ASes for the origins";
  let origins =
    Array.to_list (Rng.sample (Rng.split_at rng 10) stub_pool n_origins)
  in
  let origin_set = Asn.Set.of_list origins in
  let attacker_pool =
    Array.of_list
      (Asn.Set.elements (Asn.Set.diff (Topology.As_graph.nodes graph) origin_set))
  in
  if n_attackers < 0 || n_attackers > Array.length attacker_pool then
    invalid_arg "Scenario.random: not enough ASes for the attackers";
  let attackers =
    Rng.sample (Rng.split_at rng 11) attacker_pool n_attackers
    |> Array.to_list
    |> List.map (fun asn -> Attacker.make asn)
  in
  make ~deployment ~graph ~victim_prefix:victim_prefix_default
    ~legit_origins:origins ~attackers ()
