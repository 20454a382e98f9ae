open Net
module Rng = Mutil.Rng

type impairment = { loss : float; duplicate : float; jitter : float }

let impairment ?(loss = 0.0) ?(duplicate = 0.0) ?(jitter = 0.0) () =
  if loss < 0.0 || loss > 1.0 then
    invalid_arg "Network.impairment: loss out of [0,1]";
  if duplicate < 0.0 || duplicate > 1.0 then
    invalid_arg "Network.impairment: duplicate out of [0,1]";
  if jitter < 0.0 || Float.is_nan jitter then
    invalid_arg "Network.impairment: negative jitter";
  { loss; duplicate; jitter }

type update_tap = time:float -> src:Asn.t -> dst:Asn.t -> Update.t -> unit

(* A directed link, resolved once: the receiving router, the receiver's
   slot for the sender, and the delay.  The slot is kept as the option
   [Router.handle_update] takes, and the delay, a field of a mixed
   record, boxed: a delivery passes both on without allocating. *)
type link = { receiver : int; sender_slot : int option; delay : float }

(* A graph's routers and sessions as arrays, resolved once: router [i]
   is the [i]-th AS in increasing order, its slot [s] the [s]-th of its
   neighbours in increasing order (the router's own slot order), and the
   directed link from that slot is [links.(first.(i) + s)].  Nothing here
   depends on a scenario, so a network built over the same graph reuses
   the wiring. *)
type wiring = {
  wired_graph : Topology.As_graph.t;
  ases : Asn.t array;
  peers : Asn.t array array;
  first : int array;
  links : link array;
  (* the routers array of the last network disposed of over this
     wiring, all [vacant], for the next network to take *)
  mutable spare : Router.t array;
}

(* what a routers array holds where it has no router: a long-lived
   value, so that allocating the array forces no minor collection *)
let vacant = Router.create (Asn.make 0)

type t = {
  engine : Sim.Engine.t;
  graph : Topology.As_graph.t;
  wiring : wiring;
  (* router [i] stands for [wiring.ases.(i)]; empty once disposed *)
  mutable routers : Router.t array;
  (* failed peerings, stored under the (min, max) endpoint pair *)
  down_links : (Asn.t * Asn.t, unit) Hashtbl.t;
  (* crashed routers *)
  down_routers : (Asn.t, unit) Hashtbl.t;
  (* per-link message impairments, each with its own randomness stream *)
  impairments : (Asn.t * Asn.t, impairment * Rng.t) Hashtbl.t;
  (* passive observer of every emitted UPDATE (the collector-mesh hook) *)
  mutable tap : update_tap option;
  metrics : Obs.Registry.t;
}

(* The message latency from [a] to [b]: 1.0 plus a deterministic per-link
   jitter in [0, 0.25), which breaks the timing symmetry of a uniform
   delay without any hidden randomness. *)
let latency a b =
  let h = (Asn.to_int a * 2654435761) lxor (Asn.to_int b * 40503) in
  1.0 +. (float_of_int (abs h mod 1000) /. 4000.0)

module Config = struct
  type t = {
    policy_of : Asn.t -> Policy.t;
    validator_of : Asn.t -> Router.validator option;
    mrai_of : Asn.t -> float;
    damping_of : Asn.t -> Router.damping option;
    metrics : Obs.Registry.t;
  }

  let default =
    {
      policy_of = (fun _ -> Policy.default);
      validator_of = (fun _ -> None);
      mrai_of = (fun _ -> 0.0);
      damping_of = (fun _ -> None);
      metrics = Obs.Registry.noop;
    }

  let with_policy_of policy_of t = { t with policy_of }
  let with_validator_of validator_of t = { t with validator_of }
  let with_mrai_of mrai_of t = { t with mrai_of }
  let with_damping_of damping_of t = { t with damping_of }
  let with_metrics metrics t = { t with metrics }
end

(* Fault metrics are registered lazily, at the first fault: a run that
   injects nothing exports exactly the same sample set as before the fault
   layer existed. *)
let bump ?labels t name =
  Obs.Registry.Counter.incr (Obs.Registry.counter t.metrics ?labels name)

let note_drop t reason =
  bump t ~labels:[ ("reason", reason) ] "net_messages_dropped"

(* explicit Asn.compare: the polymorphic [<] happened to agree on the
   abstract Asn.t but monomorphic comparison is both safer and branch-free
   on ints *)
let link_key a b = if Asn.compare a b <= 0 then (a, b) else (b, a)
let link_is_up t a b = not (Hashtbl.mem t.down_links (link_key a b))
let router_is_up t asn = not (Hashtbl.mem t.down_routers asn)

(* the index of [asn] in [ases] (increasing), or -1 *)
let rec find_index ases (asn : Asn.t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let at = ases.(mid) in
    if at = asn then mid
    else if at < asn then find_index ases asn (mid + 1) hi
    else find_index ases asn lo mid

let index_of w asn = find_index w.ases asn 0 (Array.length w.ases)

let router t asn =
  match index_of t.wiring asn with
  | -1 -> raise Not_found
  | i -> t.routers.(i)

let wire graph =
  let n = Topology.As_graph.node_count graph in
  let ases = Array.make n 0 and peers = Array.make n [||] in
  let first = Array.make (n + 1) 0 in
  ignore
    (Topology.As_graph.fold_nodes
       (fun asn i ->
         let neighbors = Topology.As_graph.neighbors graph asn in
         let ids = Array.make (Asn.Set.cardinal neighbors) asn in
         ignore (Asn.Set.fold (fun peer s -> ids.(s) <- peer; s + 1) neighbors 0);
         ases.(i) <- asn;
         peers.(i) <- ids;
         first.(i + 1) <- first.(i) + Array.length ids;
         i + 1)
       graph 0);
  let links = Array.make first.(n) { receiver = 0; sender_slot = None; delay = 1.0 } in
  Array.iteri
    (fun i ids ->
      Array.iteri
        (fun s peer ->
          let r = find_index ases peer 0 n in
          links.(first.(i) + s) <-
            {
              receiver = r;
              sender_slot = Some (find_index peers.(r) ases.(i) 0 (Array.length peers.(r)));
              delay = latency ases.(i) peer;
            })
        ids)
    peers;
  { wired_graph = graph; ases; peers; first; links; spare = [||] }

(* the wiring of the last graph this domain built a network over *)
let last_wiring : wiring option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let wiring_of graph =
  match Domain.DLS.get last_wiring with
  | Some w when w.wired_graph == graph -> w
  | Some _ | None ->
    let w = wire graph in
    Domain.DLS.set last_wiring (Some w);
    w

(* Whether a message arriving at router [r] was lost: a message in
   flight when its session fails or an endpoint crashes is lost with the
   TCP connection.  The fault tables are empty unless a fault is active,
   and then nothing is hashed. *)
let lost t r update =
  (Hashtbl.length t.down_links > 0 || Hashtbl.length t.down_routers > 0)
  &&
  let dst = t.wiring.ases.(r) and src = update.Update.sender in
  if Hashtbl.mem t.down_links (link_key src dst) then begin
    note_drop t "link_down";
    true
  end
  else if Hashtbl.mem t.down_routers dst || Hashtbl.mem t.down_routers src then begin
    note_drop t "router_down";
    true
  end
  else false

(* Hand [update] to the receiving end of [link], with the receiver's slot
   for the sender, unless it was lost on the way. *)
let arrive t link update engine =
  if not (lost t link.receiver update) then
    Router.handle_update ?slot:link.sender_slot t.routers.(link.receiver)
      ~clock:(Sim.Engine.clock engine) update

let deliver t link update delay =
  Sim.Engine.schedule t.engine ~delay (fun engine -> arrive t link update engine)

(* the routers' transport: router [i] sends on its [slot] *)
let send t ~from:i ~peer ~slot update =
  let w = t.wiring in
  let link = w.links.(w.first.(i) + slot) in
  (* the tap sees the Adj-RIB-Out stream as emitted, before any
     impairment decides the message's fate on the wire *)
  (match t.tap with
  | Some tap -> tap ~time:(Sim.Engine.now t.engine) ~src:w.ases.(i) ~dst:peer update
  | None -> ());
  match
    if Hashtbl.length t.impairments = 0 then None
    else Hashtbl.find_opt t.impairments (link_key w.ases.(i) peer)
  with
  | None -> deliver t link update link.delay
  | Some (imp, rng) ->
    let delay = link.delay in
    if imp.loss > 0.0 && Rng.chance rng imp.loss then note_drop t "loss"
    else begin
      let jittered () =
        if imp.jitter > 0.0 then delay +. Rng.float rng imp.jitter else delay
      in
      deliver t link update (jittered ());
      if imp.duplicate > 0.0 && Rng.chance rng imp.duplicate then begin
        bump t "net_messages_duplicated";
        deliver t link update (jittered ())
      end
    end

let make ?(config = Config.default) graph =
  let { Config.policy_of; validator_of; mrai_of; damping_of; metrics } = config in
  let engine = Sim.Engine.create ~metrics () in
  let wiring = wiring_of graph in
  let t =
    {
      engine;
      graph;
      wiring;
      routers =
        (match wiring.spare with
        | [||] -> Array.make (Array.length wiring.ases) vacant
        | spare ->
          wiring.spare <- [||];
          spare);
      down_links = Hashtbl.create 8;
      down_routers = Hashtbl.create 8;
      impairments = Hashtbl.create 8;
      tap = None;
      metrics;
    }
  in
  let transport =
    {
      Router.send = (fun ~from ~peer ~slot update -> send t ~from ~peer ~slot update);
      schedule =
        (fun ~delay k ->
          Sim.Engine.schedule engine ~delay (fun engine -> k (Sim.Engine.now engine)));
    }
  in
  Array.iteri
    (fun i asn ->
      let r =
        Router.create_wired ~policy:(policy_of asn) ~validator:(validator_of asn)
          ~mrai:(mrai_of asn) ~damping:(damping_of asn) ~metrics ~peers:wiring.peers.(i) asn
      in
      Router.set_transport r transport ~index:i;
      t.routers.(i) <- r)
    wiring.ases;
  t

(* The routers array is in the major heap, and every router was written
   into it young, so until the next minor collection the remembered set
   holds a pointer to each: a network dropped before that collection
   would still be promoted whole.  Overwriting the slots with [vacant]
   leaves the remembered set nothing of it. *)
let dispose t =
  Array.fill t.routers 0 (Array.length t.routers) vacant;
  t.wiring.spare <- t.routers;
  t.routers <- [||];
  Sim.Engine.reset t.engine

let engine t = t.engine
let graph t = t.graph
let set_update_tap t tap = t.tap <- tap

let originate ?(at = 0.0) ?origin ?local_pref ?communities ?as_path t asn
    prefix =
  let r = router t asn in
  Sim.Engine.schedule_at t.engine ~time:at (fun engine ->
      let route =
        Route.originate ?origin ?local_pref ?communities ?as_path ~self:asn
          prefix
      in
      Router.originate r ~now:(Sim.Engine.now engine) route)

let withdraw ?(at = 0.0) t asn prefix =
  let r = router t asn in
  Sim.Engine.schedule_at t.engine ~time:at (fun engine ->
      Router.withdraw_origin r ~now:(Sim.Engine.now engine) prefix)

let check_peering t a b =
  if not (Topology.As_graph.mem_edge t.graph a b) then
    invalid_arg
      (Printf.sprintf "Network: %s and %s do not peer" (Asn.to_string a)
         (Asn.to_string b))

let check_member t asn =
  if not (Topology.As_graph.mem_node t.graph asn) then
    invalid_arg
      (Printf.sprintf "Network: %s is not in the topology" (Asn.to_string asn))

(* ---------------- fault primitives (applied at the current time) -------- *)

let fail_link_now t a b =
  check_peering t a b;
  if link_is_up t a b then begin
    Hashtbl.replace t.down_links (link_key a b) ();
    bump t "net_sessions_down";
    let now = Sim.Engine.now t.engine in
    (* peer_down on a crashed endpoint is a no-op: its session set is
       already empty *)
    Router.peer_down (router t a) ~now b;
    Router.peer_down (router t b) ~now a
  end

let restore_link_now t a b =
  check_peering t a b;
  if not (link_is_up t a b) then begin
    Hashtbl.remove t.down_links (link_key a b);
    (* a session needs both endpoints alive; with one crashed the link is
       merely repaired and the session waits for the restart *)
    if router_is_up t a && router_is_up t b then begin
      bump t "net_sessions_up";
      let now = Sim.Engine.now t.engine in
      Router.peer_up (router t a) ~now b;
      Router.peer_up (router t b) ~now a
    end
  end

let crash_router_now t asn =
  check_member t asn;
  if router_is_up t asn then begin
    Hashtbl.replace t.down_routers asn ();
    bump t "net_router_crashes";
    let now = Sim.Engine.now t.engine in
    Router.crash (router t asn);
    Asn.Set.iter
      (fun n ->
        if link_is_up t asn n && router_is_up t n then begin
          bump t "net_sessions_down";
          Router.peer_down (router t n) ~now asn
        end)
      (Topology.As_graph.neighbors t.graph asn)
  end

let restart_router_now t asn =
  check_member t asn;
  if not (router_is_up t asn) then begin
    Hashtbl.remove t.down_routers asn;
    bump t "net_router_restarts";
    let now = Sim.Engine.now t.engine in
    Router.restart (router t asn) ~now;
    Asn.Set.iter
      (fun n ->
        if link_is_up t asn n && router_is_up t n then begin
          bump t "net_sessions_up";
          Router.peer_up (router t asn) ~now n;
          Router.peer_up (router t n) ~now asn
        end)
      (Topology.As_graph.neighbors t.graph asn)
  end

let impair_link t ~rng a b imp =
  check_peering t a b;
  Hashtbl.replace t.impairments (link_key a b) (imp, rng)

let clear_link_impairment t a b =
  check_peering t a b;
  Hashtbl.remove t.impairments (link_key a b)

let link_impairment t a b =
  Option.map fst (Hashtbl.find_opt t.impairments (link_key a b))

let run ?(max_events = 10_000_000) t = Sim.Engine.run ~max_events t.engine

let best_route t asn prefix = Router.best (router t asn) prefix

let best_origin t asn prefix = Router.best_origin (router t asn) prefix

let fold_best t prefix f init =
  let rec from i acc =
    if i = Array.length t.routers then acc
    else
      from (i + 1)
        (match Router.best t.routers.(i) prefix with
        | Some route -> f t.wiring.ases.(i) route acc
        | None -> acc)
  in
  from 0 init

let forward_path t ~from addr =
  let max_hops = Array.length t.routers + 1 in
  let rec walk asn acc hops =
    if hops > max_hops then None (* forwarding loop *)
    else begin
      let rib = Router.rib (router t asn) in
      match Prefix_trie.longest_match addr (Rib.loc_rib_trie rib) with
      | None -> None (* no route: packet dropped *)
      | Some (_, route) ->
        if As_path.length route.Route.as_path = 0 then
          (* the covering prefix is originated here: delivered *)
          Some (List.rev (asn :: acc))
        else begin
          let next = route.Route.learned_from in
          if Asn.equal next asn then Some (List.rev (asn :: acc))
          else walk next (asn :: acc) (hops + 1)
        end
    end
  in
  if index_of t.wiring from >= 0 then walk from [] 0 else None

let delivered_to t ~from addr =
  match forward_path t ~from addr with
  | Some path -> (
    match List.rev path with
    | last :: _ -> Some last
    | [] -> None)
  | None -> None

let total_updates_sent t =
  Array.fold_left (fun acc r -> acc + Router.updates_sent r) 0 t.routers

let total_updates_received t =
  Array.fold_left (fun acc r -> acc + Router.updates_received r) 0 t.routers
