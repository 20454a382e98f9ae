open Net
module Topo = Topology.Paper_topologies
module Graph = Topology.As_graph
module Plan = Faults.Fault_plan

let cut_at = 20.0
let attack_at = 30.0
let second_home_at = 5.0

(* degree-ranked transit feeds: the best-connected ASes see the most
   paths, which is how RouteViews collectors pick their peers *)
let ranked_feeds (topo : Topo.t) =
  Asn.Set.elements topo.Topo.transit
  |> List.sort (fun a b ->
         let c =
           compare (Graph.degree topo.Topo.graph b)
             (Graph.degree topo.Topo.graph a)
         in
         if c <> 0 then c else Asn.compare a b)

let design_vantages ?(count = 3) (topo : Topo.t) =
  if count < 1 then invalid_arg "Scenario.design_vantages: count < 1";
  let feeds = Array.of_list (ranked_feeds topo) in
  let m = Array.length feeds in
  if m = 0 then invalid_arg "Scenario.design_vantages: no transit AS";
  List.init count (fun i ->
      let a = feeds.(i mod m) and b = feeds.((i + 1) mod m) in
      let peers = if Asn.equal a b then [ a ] else [ a; b ] in
      Vantage.spec ~name:(Printf.sprintf "vp%02d" i) peers)

let attacked_prefix = Prefix.of_string "192.0.2.0/24"
let multihomed_prefix = Prefix.of_string "198.51.100.0/24"
let quiet_prefix = Prefix.of_string "203.0.113.0/24"

(* actors are picked identically in both arms: stubs outside the feed set
   and (so the partition cannot strand them) outside the neighborhood of
   the first vantage's feeds.  The legitimate origin and the attacker are
   placed next to two different unpartitioned feeds, so those feeds
   disagree on the best-route origin — the conflict is visible at a
   collector by construction, and survives isolating the first vantage. *)
let pick_actors (topo : Topo.t) specs =
  let graph = topo.Topo.graph in
  let feed_set =
    List.fold_left
      (fun acc s -> Asn.Set.union acc s.Vantage.v_peers)
      Asn.Set.empty specs
  in
  let isolated_zone =
    match specs with
    | first :: _ ->
      Asn.Set.fold
        (fun feed acc -> Asn.Set.union acc (Graph.neighbors graph feed))
        first.Vantage.v_peers first.Vantage.v_peers
    | [] -> Asn.Set.empty
  in
  let pool =
    match
      Asn.Set.elements
        (Asn.Set.diff topo.Topo.stub (Asn.Set.union feed_set isolated_zone))
    with
    | _ :: _ :: _ :: _ :: _ :: _ as enough -> enough
    | _ ->
      (* small topology: only keep the feeds themselves excluded *)
      Asn.Set.elements (Asn.Set.diff topo.Topo.stub feed_set)
  in
  let adjacent feed asn = Asn.Set.mem feed (Graph.neighbors graph asn) in
  (* the two lowest-ranked feeds that survive the partition: the attacker
     sits next to one, the legitimate origin next to the other *)
  let attack_feed, legit_feed =
    let iso =
      match specs with
      | first :: _ -> first.Vantage.v_peers
      | [] -> Asn.Set.empty
    in
    let unpartitioned =
      List.filter
        (fun f -> Asn.Set.mem f feed_set && not (Asn.Set.mem f iso))
        (ranked_feeds topo)
    in
    match List.rev unpartitioned with
    | a :: b :: _ -> (a, b)
    | [ a ] -> (a, a)
    | [] -> (
      match List.rev (ranked_feeds topo) with
      | a :: b :: _ -> (a, b)
      | _ -> invalid_arg "Scenario.capture: topology has too few transit ASes")
  in
  let take_first preds pool =
    let rec pick = function
      | p :: rest -> (
        match List.find_opt p pool with Some x -> Some x | None -> pick rest)
      | [] -> None
    in
    match pick preds with
    | Some x -> (x, List.filter (fun y -> not (Asn.equal x y)) pool)
    | None -> (
      match pool with
      | x :: rest -> (x, rest)
      | [] -> invalid_arg "Scenario.capture: topology has too few stub ASes")
  in
  let attacker, pool =
    take_first
      [
        (fun a -> adjacent attack_feed a && not (adjacent legit_feed a));
        adjacent attack_feed;
      ]
      pool
  in
  let legit, pool =
    take_first
      [
        (fun a -> adjacent legit_feed a && not (adjacent attack_feed a));
        adjacent legit_feed;
      ]
      pool
  in
  (* the legitimate multihomed prefix is originated by the two target
     feeds themselves — the paper's "multi-homing without BGP" case where
     both providers announce the customer prefix — so each home is its own
     best route and the collectors see disagreeing origins by construction *)
  match pool with
  | quiet :: _ -> (legit, attacker, legit_feed, attack_feed, quiet)
  | _ -> invalid_arg "Scenario.capture: topology has too few stub ASes"

type arm = Baseline | Partitioned | Fault_churn | Scrubbed

let arm_to_string = function
  | Baseline -> "baseline"
  | Partitioned -> "partitioned"
  | Fault_churn -> "fault-churn"
  | Scrubbed -> "scrubbed"

(* [Scrubbed] is appended last so the run indices (and therefore the
   pre-split per-run random streams) of the three original arms never
   move — existing corpus captures stay byte-identical *)
let all_arms = [ Baseline; Partitioned; Fault_churn; Scrubbed ]

(* fault-churn flap cadence: outages while the attack-free capture is
   still interesting, several full cycles before quiescence *)
let flap_start = 10.0
let flap_period = 8.0
let flap_down_for = 3.0
let flap_until = 40.0

type design = {
  d_specs : Vantage.spec list;
  d_legit : Asn.t;
  d_attacker : Asn.t;
  d_home_a : Asn.t;
  d_home_b : Asn.t;
  d_quiet : Asn.t;
  d_scrubbers : Asn.Set.t;
}

let design ?(vantages = 3) (topo : Topo.t) =
  let specs = design_vantages ~count:vantages topo in
  let legit, attacker, home_a, home_b, quiet = pick_actors topo specs in
  {
    d_specs = specs;
    d_legit = legit;
    d_attacker = attacker;
    d_home_a = home_a;
    d_home_b = home_b;
    d_quiet = quiet;
    (* the Scrubbed arm's scrub set: every neighbor of the victim.  This
       is the minimal cut that erases the victim's MOAS list everywhere —
       each of its paths starts with one of these hops — while the
       attacker's side of the topology keeps its community hygiene, the
       asymmetry of Section 4.3: the defender depends on its providers'
       behaviour, the attacker chooses its own *)
    d_scrubbers = Graph.neighbors topo.Topo.graph legit;
  }

(* the invalid-origin conflict: the victim advertises its singleton MOAS
   list, the attacker none — the §4.2 detectable case.  The fault-churn
   arm has no attacker: its MOAS conflicts are all operational.  The
   legitimate multihomed MOAS advertises the agreed list in every arm
   except fault-churn, where the homes multihome {e without} lists — the
   paper's unregistered-but-legitimate case, the one the MOAS-list check
   false-alarms on. *)
let originate_arm arm network d =
  Bgp.Network.originate ~at:0.0
    ~communities:(Moas.Moas_list.encode (Asn.Set.singleton d.d_legit))
    network d.d_legit attacked_prefix;
  if arm <> Fault_churn then
    Bgp.Network.originate ~at:attack_at network d.d_attacker attacked_prefix;
  let homes = Asn.Set.of_list [ d.d_home_a; d.d_home_b ] in
  let home_communities =
    if arm = Fault_churn then None else Some (Moas.Moas_list.encode homes)
  in
  Bgp.Network.originate ~at:0.0 ?communities:home_communities network
    d.d_home_a multihomed_prefix;
  Bgp.Network.originate ~at:second_home_at ?communities:home_communities
    network d.d_home_b multihomed_prefix;
  (* the control prefix: one origin, no conflict, no list *)
  Bgp.Network.originate ~at:0.0 network d.d_quiet quiet_prefix

let fault_plan arm (topo : Topo.t) d =
  match arm with
  | Baseline | Scrubbed -> Plan.empty
  | Partitioned -> (
    match d.d_specs with
    | [] -> Plan.empty
    | first :: _ ->
      (* sever every peering of the first vantage's feeds after the
         valid routes converge, before the attack lands *)
      Asn.Set.fold
        (fun feed acc ->
          Asn.Set.fold
            (fun peer acc ->
              Plan.union acc (Plan.fail ~at:cut_at (Plan.link feed peer)))
            (Graph.neighbors topo.Topo.graph feed)
            acc)
        first.Vantage.v_peers Plan.empty)
  | Fault_churn ->
    (* periodically flap every peering of the second home: during each
       outage the rest of the mesh loses its origin, so the multihomed
       episode closes and reopens — recurrence and churn with no
       attacker anywhere *)
    Asn.Set.fold
      (fun peer acc ->
        Plan.union acc
          (Plan.flap ~start:flap_start ~period:flap_period
             ~down_for:flap_down_for ~until:flap_until
             (Plan.link d.d_home_b peer)))
      (Graph.neighbors topo.Topo.graph d.d_home_b)
      Plan.empty

(* the Scrubbed arm runs the full per-AS community usage model with the
   victim's neighbors forced to the scrubbing class; every other arm keeps
   the default (community-transparent) policies *)
let arm_policy_of ?(metrics = Obs.Registry.noop) arm ~seed (topo : Topo.t) d =
  match arm with
  | Baseline | Partitioned | Fault_churn -> None
  | Scrubbed ->
    let model =
      Bgp.Community_policy.force_class
        (Bgp.Community_policy.make ~seed ~transit:topo.Topo.transit
           topo.Topo.graph)
        d.d_scrubbers Bgp.Community_policy.Scrub
    in
    Some (Bgp.Community_policy.policy ~metrics model)

type t = {
  s_topology : string;
  s_arm : arm;
  s_specs : Vantage.spec list;
  s_streams : (string * Stream.Monitor.event array) list;
  s_end_time : int;
  s_attacked : Prefix.t;
  s_multihomed : Prefix.t;
  s_quiet : Prefix.t;
  s_legit : Asn.t;
  s_attacker : Asn.t;
  s_homes : Asn.Set.t;
  s_quiet_origin : Asn.t;
  s_isolated : string option;
  s_scrubbers : Asn.Set.t;
  s_faults_injected : int;
}

let capture ?(metrics = Obs.Registry.noop) ?(arm = Baseline) ~seed ~vantages
    (topo : Topo.t) =
  let d = design ~vantages topo in
  let config =
    let base = Bgp.Network.Config.(default |> with_metrics metrics) in
    match arm_policy_of ~metrics arm ~seed topo d with
    | None -> base
    | Some policy_of -> Bgp.Network.Config.with_policy_of policy_of base
  in
  let network = Bgp.Network.make ~config topo.Topo.graph in
  let recorders = Vantage.attach ~metrics network d.d_specs in
  originate_arm arm network d;
  let plan = fault_plan arm topo d in
  let isolated =
    match (arm, d.d_specs) with
    | Partitioned, first :: _ -> Some first.Vantage.v_name
    | _ -> None
  in
  let injector =
    if plan = Plan.empty then None
    else
      let rng = Mutil.Rng.create ~seed in
      Some (Faults.Injector.arm ~metrics ~rng network plan)
  in
  ignore (Bgp.Network.run network);
  {
    s_topology = topo.Topo.name;
    s_arm = arm;
    s_specs = d.d_specs;
    s_streams = Vantage.streams recorders;
    s_end_time = Vantage.millis (Sim.Engine.now (Bgp.Network.engine network));
    s_attacked = attacked_prefix;
    s_multihomed = multihomed_prefix;
    s_quiet = quiet_prefix;
    s_legit = d.d_legit;
    s_attacker = d.d_attacker;
    s_homes = Asn.Set.of_list [ d.d_home_a; d.d_home_b ];
    s_quiet_origin = d.d_quiet;
    s_isolated = isolated;
    s_scrubbers = (if arm = Scrubbed then d.d_scrubbers else Asn.Set.empty);
    s_faults_injected =
      (match injector with Some i -> Faults.Injector.injected i | None -> 0);
  }

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "topology %s (%s arm), %d vantages:\n" t.s_topology
       (arm_to_string t.s_arm)
       (List.length t.s_specs));
  List.iter2
    (fun s (_, events) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s peers={%s} events=%d%s\n" s.Vantage.v_name
           (Asn.Set.elements s.Vantage.v_peers
           |> List.map Asn.to_string |> String.concat ",")
           (Array.length events)
           (if t.s_isolated = Some s.Vantage.v_name then
              " [partitioned at t=20]"
            else "")))
    t.s_specs t.s_streams;
  Buffer.add_string buf
    (Printf.sprintf
       "workload: attack on %s (legit %s vs attacker %s), multihomed %s, \
        quiet %s\n"
       (Prefix.to_string t.s_attacked)
       (Asn.to_string t.s_legit)
       (Asn.to_string t.s_attacker)
       (Prefix.to_string t.s_multihomed)
       (Prefix.to_string t.s_quiet));
  if not (Asn.Set.is_empty t.s_scrubbers) then
    Buffer.add_string buf
      (Printf.sprintf "community scrubbers: {%s}\n"
         (Asn.Set.elements t.s_scrubbers
         |> List.map Asn.to_string |> String.concat ","));
  if t.s_faults_injected > 0 then
    Buffer.add_string buf
      (Printf.sprintf "faults injected: %d\n" t.s_faults_injected);
  Buffer.contents buf
