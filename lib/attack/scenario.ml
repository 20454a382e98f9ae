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

(* the index of [asn] in the increasing [a], or -1 *)
let rec index_in a (asn : Asn.t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) = asn then mid
    else if a.(mid) < asn then index_in a asn (mid + 1) hi
    else index_in a asn lo mid

let rec earliest first = function
  | [] -> first
  | alarm :: rest ->
    earliest
      (match first with
      | Some e when e <= alarm.Moas.Alarm.time -> first
      | _ -> Some alarm.Moas.Alarm.time)
      rest

(* the alarm count, the alarming ASes and the first alarm's time of the
   detectors: every alarm of a detector names the detector's AS *)
let rec tally_alarms count ases first = function
  | [] -> (count, ases, first)
  | detector :: rest ->
    (match Moas.Detector.alarms detector with
    | [] -> tally_alarms count ases first rest
    | alarm :: _ as alarms ->
      tally_alarms
        (count + Moas.Detector.alarm_count detector)
        (Asn.Set.add alarm.Moas.Alarm.observer ases)
        (earliest first alarms) rest)

let run ?(metrics = Obs.Registry.noop) ?prepare rng scenario =
  (* A scenario's data lives as long as the scenario, and a scenario of
     the paper's sweep fits in the minor heap.  Emptying the minor heap
     first, when nothing of this scenario exists yet, lets it run
     without a collection, so its network, disposed of below, dies
     young; this collection promotes only what the caller still holds. *)
  Gc.minor ();
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
  (* the detectors, in no particular order; one backend and one
     registry option serve them all *)
  let detectors = ref [] in
  let backend = Some (Moas.Detector.Oracle oracle) and registry = Some metrics in
  let validator_of asn =
    if Asn.Set.mem asn capable then begin
      let detector = Moas.Detector.create ?backend ?metrics:registry ~self:asn () in
      detectors := detector :: !detectors;
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
  (* the ASes holding a bogus best route, in increasing order: a bogus
     route either originates at an attacker or is an impersonation
     (recognisable by the signature marker) *)
  let misled =
    Bgp.Network.fold_best network scenario.victim_prefix
      (fun asn route misled ->
        if Asn.Set.mem (Bgp.Route.origin_as ~self:asn route) attacker_set
           || Bgp.Community.Set.mem Attacker.impersonation_marker
                route.Bgp.Route.communities
        then asn :: misled
        else misled)
      []
    |> List.rev |> Array.of_list
  in
  let adopters =
    Asn.Set.filter (fun asn -> index_in misled asn 0 (Array.length misled) >= 0) eligible_set
  in
  let alarm_count, alarming_ases, first_alarm_at =
    tally_alarms 0 Asn.Set.empty None !detectors
  in
  let eligible = Asn.Set.cardinal eligible_set in
  let converged_at = Sim.Engine.now (Bgp.Network.engine network) in
  let updates_sent = Bgp.Network.total_updates_sent network in
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
  (* the network is garbage from here; see [Bgp.Network.dispose] *)
  Bgp.Network.dispose network;
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
    converged_at;
    oracle_queries = Moas.Origin_verification.query_count oracle;
    updates_sent;
    converged;
    capable;
    droppers;
  }

let victim_prefix_default = Prefix.of_string "192.0.2.0/24"

(* The sorted node and stub arrays of the last (graph, stub set) this
   domain drew a scenario from: a sweep draws every scenario from one. *)
let last_pools : (Topology.As_graph.t * Asn.Set.t * Asn.t array * Asn.t array) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let sorted_array set =
  let a = Array.make (Asn.Set.cardinal set) 0 in
  ignore (Asn.Set.fold (fun asn i -> a.(i) <- asn; i + 1) set 0);
  a

let pools graph stub =
  match Domain.DLS.get last_pools with
  | Some (g, s, nodes, stubs) when g == graph && s == stub -> (nodes, stubs)
  | Some _ | None ->
    let nodes = sorted_array (Topology.As_graph.nodes graph)
    and stubs = sorted_array stub in
    Domain.DLS.set last_pools (Some (graph, stub, nodes, stubs));
    (nodes, stubs)

(* Both pools are drawn from as [Rng.sample] draws from the sorted
   arrays, without copying them: the attacker pool is the nodes but the
   origins, whose positions the lookup skips. *)
let random rng ~graph ~stub ~n_origins ~n_attackers ~deployment =
  let nodes, stubs = pools graph stub in
  if n_origins <= 0 || n_origins > Array.length stubs then
    invalid_arg "Scenario.random: not enough stub ASes for the origins";
  let origins =
    Array.to_list
      (Rng.sample_init (Rng.split_at rng 10) (Array.length stubs) (Array.get stubs) n_origins)
  in
  let skipped =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun asn ->
           match index_in nodes asn 0 (Array.length nodes) with -1 -> None | i -> Some i)
         origins)
  in
  let attacker_at p = nodes.(List.fold_left (fun q o -> if o <= q then q + 1 else q) p skipped) in
  let pool = Array.length nodes - List.length skipped in
  if n_attackers < 0 || n_attackers > pool then
    invalid_arg "Scenario.random: not enough ASes for the attackers";
  let attackers =
    Rng.sample_init (Rng.split_at rng 11) pool attacker_at n_attackers
    |> Array.to_list
    |> List.map (fun asn -> Attacker.make asn)
  in
  make ~deployment ~graph ~victim_prefix:victim_prefix_default
    ~legit_origins:origins ~attackers ()
