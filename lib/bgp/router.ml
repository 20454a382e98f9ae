open Net

type verdict = Keep | Drop | Rescan

(* a validator's functions take its state, so that a stateful validator
   is one record over its state, not a closure per function *)
type validator =
  | Validator : {
      state : 's;
      filter : 's -> now:float -> prefix:Prefix.t -> Route.t list -> Route.t list;
      judge :
        ('s ->
        prefix:Prefix.t ->
        incumbent:Route.t option ->
        previous:Route.t option ->
        Route.t option ->
        verdict)
        option;
    }
      -> validator

let scan_with f ~now ~prefix routes = f ~now ~prefix routes
let scan_only f = Validator { state = f; filter = scan_with; judge = None }
let filter (Validator v) ~now ~prefix routes = v.filter v.state ~now ~prefix routes

type damping = {
  penalty_withdraw : float;
  penalty_update : float;
  suppress_threshold : float;
  reuse_threshold : float;
  half_life : float;
}

let default_damping =
  {
    penalty_withdraw = 1000.0;
    penalty_update = 500.0;
    suppress_threshold = 2000.0;
    reuse_threshold = 750.0;
    half_life = 900.0;
  }

(* per (peer, prefix) damping state *)
type flap_state = {
  mutable penalty : float;
  mutable stamped_at : float;
  mutable suppressed : bool;
  mutable first_seen : bool; (* the initial announcement is not a flap *)
}

(* damping parameters and the flap states they judge, allocated only for
   a router that damps *)
type damper = { params : damping; flaps : (Asn.t * Prefix.t, flap_state) Hashtbl.t }

(* the observability handles of one router, inert when the registry is
   the noop; every router of an uninstrumented network shares [inert] *)
type obs = {
  live : bool;
  sent_c : Obs.Registry.Counter.t;
  received_c : Obs.Registry.Counter.t;
  decisions_c : Obs.Registry.Counter.t;
  loc_rib_g : Obs.Registry.Gauge.t;
}

let obs_of metrics ~labels =
  {
    live = not (Obs.Registry.is_noop metrics);
    sent_c = Obs.Registry.counter metrics ~labels "bgp_updates_sent";
    received_c = Obs.Registry.counter metrics ~labels "bgp_updates_received";
    decisions_c = Obs.Registry.counter metrics ~labels "bgp_decisions";
    loc_rib_g = Obs.Registry.gauge metrics ~labels "bgp_loc_rib_size";
  }

let inert = obs_of Obs.Registry.noop ~labels:[]

(* MRAI state, allocated only for a positive interval: per slot, the time
   of the last advertisement batch and the prefixes whose advertisement
   is deferred until the interval expires *)
type pacing = {
  interval : float;
  last_batch : Float.Array.t;
  deferred : Prefix.Set.t array;
}

type transport = {
  send : from:int -> peer:Asn.t -> slot:int -> Update.t -> unit;
  schedule : delay:float -> (float -> unit) -> unit;
}

type t = {
  asn : Asn.t;
  policy : Policy.t;
  validator : validator option;
  pacing : pacing option;
  damping : damper option;
  rib : Rib.t;
  (* the prefixes whose next decision must scan every candidate: at its
     last decision a validator without a verdict dropped one, or a crash
     emptied the RIBs under the validator's state.  Every other prefix's
     best route is a most preferred kept candidate (on attributes), which
     is what lets one changed candidate be judged against it alone. *)
  mutable must_scan : Prefix.Set.t;
  (* the session slots, fixed at creation: the peers in increasing AS
     order, and at the same index whether the session is established.  A
     slot outlives its session, so the slot the transport was given for a
     peer stays valid across session loss and crashes. *)
  peer_ids : Asn.t array;
  up : Bytes.t;
  mutable originated : Route.t Prefix.Map.t;
  mutable aggregates : Prefix.Set.t;
  (* the network's transport, shared by its routers, and this router's
     index in it *)
  mutable transport : transport;
  mutable index : int;
  mutable received_count : int;
  mutable sent_count : int;
  obs : obs;
}

let not_wired () = failwith "Router: transport not wired (call set_transport)"

let unwired =
  {
    send = (fun ~from:_ ~peer:_ ~slot:_ _ -> not_wired ());
    schedule = (fun ~delay:_ _ -> not_wired ());
  }

let established t slot = Bytes.get t.up slot = '\001'

(* [peers] must be strictly increasing and without [self]: every slot
   lookup is a binary search over them *)
let rec check_peers self peers i =
  if i < Array.length peers then begin
    if Asn.equal peers.(i) self then invalid_arg "Router.create: self peering";
    if i > 0 && Asn.compare peers.(i - 1) peers.(i) >= 0 then
      invalid_arg "Router.create: peers not strictly increasing";
    check_peers self peers (i + 1)
  end

let create_wired ~policy ~validator ~mrai ~damping ~metrics ~peers asn =
  if mrai < 0.0 then invalid_arg "Router.create: negative mrai";
  (match damping with
  | Some d when d.reuse_threshold >= d.suppress_threshold ->
    invalid_arg "Router.create: damping reuse must be below suppress"
  | _ -> ());
  check_peers asn peers 0;
  let n = Array.length peers in
  {
    asn;
    policy;
    validator;
    pacing =
      (if mrai > 0.0 then
         Some
           {
             interval = mrai;
             last_batch = Float.Array.make n neg_infinity;
             deferred = Array.make n Prefix.Set.empty;
           }
       else None);
    damping =
      Option.map (fun params -> { params; flaps = Hashtbl.create 16 }) damping;
    rib = Rib.create ~slots:n;
    must_scan = Prefix.Set.empty;
    peer_ids = peers;
    up = Bytes.make n '\001';
    originated = Prefix.Map.empty;
    aggregates = Prefix.Set.empty;
    transport = unwired;
    index = 0;
    received_count = 0;
    sent_count = 0;
    obs =
      (if Obs.Registry.is_noop metrics then inert
       else obs_of metrics ~labels:[ ("as", Asn.to_string asn) ]);
  }

let create ?(policy = Policy.default) ?validator ?(mrai = 0.0) ?damping
    ?(metrics = Obs.Registry.noop) ?(peers = [||]) asn =
  create_wired ~policy ~validator ~mrai ~damping ~metrics ~peers asn

(* a session's export state as it is before its first advertisement *)
let reset_session t slot =
  match t.pacing with
  | Some p ->
    Float.Array.set p.last_batch slot neg_infinity;
    p.deferred.(slot) <- Prefix.Set.empty
  | None -> ()

(* the peer's slot, or -1 without one: a binary search *)
let rec find_slot peers (peer : Asn.t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let at = peers.(mid) in
    if at = peer then mid
    else if at < peer then find_slot peers peer (mid + 1) hi
    else find_slot peers peer lo mid

let lookup t peer = find_slot t.peer_ids peer 0 (Array.length t.peer_ids)

(* the slot of a configured peer; a router never invents a session *)
let slot_of t peer =
  match lookup t peer with
  | -1 -> invalid_arg ("Router: no session with AS " ^ Asn.to_string peer)
  | slot -> slot

let peers t =
  let rec collect slot acc =
    if slot < 0 then acc
    else collect (slot - 1) (if established t slot then t.peer_ids.(slot) :: acc else acc)
  in
  collect (Array.length t.peer_ids - 1) []

let set_transport t transport ~index =
  t.transport <- transport;
  t.index <- index

let transport_send t slot update =
  t.sent_count <- t.sent_count + 1;
  Obs.Registry.Counter.incr t.obs.sent_c;
  t.transport.send ~from:t.index ~peer:t.peer_ids.(slot) ~slot update

let transport_schedule t ~delay k = t.transport.schedule ~delay k

(* ---------------- route-flap damping (RFC 2439) ---------------- *)

let decayed_penalty damping state ~now =
  let dt = Float.max 0.0 (now -. state.stamped_at) in
  state.penalty *. (0.5 ** (dt /. damping.half_life))

let flap_state { flaps; _ } ~peer prefix =
  let key = (peer, prefix) in
  match Hashtbl.find_opt flaps key with
  | Some state -> state
  | None ->
    let state =
      { penalty = 0.0; stamped_at = 0.0; suppressed = false; first_seen = false }
    in
    Hashtbl.add flaps key state;
    state

let flap_penalty t ~peer prefix ~now =
  match t.damping with
  | None -> 0.0
  | Some { params; flaps } ->
    (match Hashtbl.find_opt flaps (peer, prefix) with
    | None -> 0.0
    | Some state -> decayed_penalty params state ~now)

let is_suppressed t ~peer prefix ~now =
  match t.damping with
  | None -> false
  | Some { params; flaps } ->
    (match Hashtbl.find_opt flaps (peer, prefix) with
    | None -> false
    | Some state ->
      if not state.suppressed then false
      else begin
        let penalty = decayed_penalty params state ~now in
        if penalty < params.reuse_threshold then begin
          state.suppressed <- false;
          state.penalty <- penalty;
          state.stamped_at <- now;
          false
        end
        else true
      end)

(* record one flap; returns true when the route just became suppressed *)
let note_flap damper ~now ~peer prefix ~increment =
  let state = flap_state damper ~peer prefix in
  if not state.first_seen then begin
    (* the very first announcement is legitimate birth, not a flap *)
    state.first_seen <- true;
    state.stamped_at <- now;
    false
  end
  else begin
    let penalty = decayed_penalty damper.params state ~now +. increment in
    state.penalty <- penalty;
    state.stamped_at <- now;
    if (not state.suppressed) && penalty >= damper.params.suppress_threshold then begin
      state.suppressed <- true;
      true
    end
    else false
  end

(* damping admission: a suppressed route from a peer is not a candidate;
   checking it may lift the suppression, so the flap states are visited
   in candidate order *)
let admitted t ~now prefix r =
  Asn.equal r.Route.learned_from t.asn
  || not (is_suppressed t ~peer:r.Route.learned_from prefix ~now)

(* All candidates: the locally originated route first, then the
   Adj-RIB-In entries in peer-AS order. *)
let candidates t e prefix =
  let learned = Rib.candidates e in
  match Prefix.Map.find_opt prefix t.originated with
  | Some r -> r :: learned
  | None -> learned

let admitted_candidates t ~clock e prefix =
  match t.damping with
  | None -> candidates t e prefix
  | Some _ -> Route.filter (admitted t ~now:!clock prefix) (candidates t e prefix)

let best t prefix = Rib.best t.rib prefix

let best_origin t prefix =
  Option.map (fun r -> Route.origin_as ~self:t.asn r) (best t prefix)

let rib t = t.rib

let updates_received t = t.received_count
let updates_sent t = t.sent_count

(* ------------------------------------------------------------------ *)
(* Advertisement: compute what a peer should currently hear for a prefix
   and emit an UPDATE only if it differs from what it last heard, which
   the prefix's Adj-RIB-Out slot for the peer records.  The callers pass
   the prefix's entry and best route, looked up once per change rather
   than once per peer.

   [shared] is the announcement of the best route as this AS advertises
   it unchanged: the first peer whose export returns the route itself
   builds it ([Rib.unheard] stands for "not built yet"), and every later
   peer of the same change is sent the same message.  Each function
   below returns it for the next peer. *)

(* whether the peer holds a route other than [route] from us *)
let stale heard route =
  match heard.Update.payload with
  | Update.Announce held -> not (Route.equal route held)
  | Update.Withdraw _ -> true

let send_to t e slot update =
  Rib.set_heard e slot update;
  transport_send t slot update

let withdraw_from t e slot prefix =
  match (Rib.heard e slot).Update.payload with
  | Update.Announce _ -> send_to t e slot (Update.withdraw ~sender:t.asn prefix)
  | Update.Withdraw _ -> ()

let rec sync_peer_prefix t e ~shared slot prefix best =
  match best with
  | None ->
    withdraw_from t e slot prefix;
    shared
  | Some route ->
    let peer = t.peer_ids.(slot) in
    (* split horizon: never advertise a route back to the peer that
       supplied it *)
    if (not (As_path.length route.Route.as_path = 0))
       && Asn.equal route.Route.learned_from peer
    then begin
      withdraw_from t e slot prefix;
      shared
    end
    else if Policy.exports_unchanged t.policy then send_shared t e ~shared slot route
    else
      (match t.policy.Policy.export ~peer route with
      | None ->
        withdraw_from t e slot prefix;
        shared
      | Some exported when exported != route ->
        let advertised = Route.advertised_by t.asn exported in
        if stale (Rib.heard e slot) advertised then
          send_to t e slot (Update.announce ~sender:t.asn advertised);
        shared
      | Some _ -> send_shared t e ~shared slot route)

(* the peer at [slot] takes the best route unchanged *)
and send_shared t e ~shared slot route =
  let shared =
    if shared != Rib.unheard then shared
    else Update.announce ~sender:t.asn (Route.advertised_by t.asn route)
  in
  (match shared.Update.payload with
  | Update.Announce advertised when stale (Rib.heard e slot) advertised ->
    send_to t e slot shared
  | Update.Announce _ | Update.Withdraw _ -> ());
  shared

(* MRAI gating: a peer whose last batch is too recent gets the prefix
   queued; a timer fires when the interval expires and syncs every queued
   prefix at once. *)
let rec advertise_to_peer t ~clock e ~shared slot prefix best =
  match t.pacing with
  | None -> sync_peer_prefix t e ~shared slot prefix best
  | Some p when !clock -. Float.Array.get p.last_batch slot >= p.interval ->
    let shared = sync_peer_prefix t e ~shared slot prefix best in
    Float.Array.set p.last_batch slot !clock;
    shared
  | Some p ->
    let was_empty = Prefix.Set.is_empty p.deferred.(slot) in
    p.deferred.(slot) <- Prefix.Set.add prefix p.deferred.(slot);
    if was_empty then
      transport_schedule t
        ~delay:(Float.Array.get p.last_batch slot +. p.interval -. !clock)
        (fun fire_time -> flush_deferred t p ~clock:(ref fire_time) slot);
    shared

(* a session that went down and came back up in the meantime is flushed
   as it is now, and one still down has nothing queued *)
and flush_deferred t p ~clock slot =
  let queued = p.deferred.(slot) in
  p.deferred.(slot) <- Prefix.Set.empty;
  if not (Prefix.Set.is_empty queued) then begin
    Float.Array.set p.last_batch slot !clock;
    Prefix.Set.iter
      (fun prefix ->
        let e = Rib.entry t.rib prefix in
        ignore (sync_peer_prefix t e ~shared:Rib.unheard slot prefix (Rib.entry_best e)))
      queued
  end

let rec advertise_from t ~clock e ~shared slot prefix best =
  if slot < Array.length t.peer_ids then
    advertise_from t ~clock e
      ~shared:
        (if established t slot then advertise_to_peer t ~clock e ~shared slot prefix best
         else shared)
      (slot + 1) prefix best

let advertise_all t ~clock e prefix best =
  advertise_from t ~clock e ~shared:Rib.unheard 0 prefix best

(* ------------------------------------------------------------------ *)
(* Decision *)

(* The validator's filter over the admitted candidates.  A validator
   without a verdict that drops a candidate bars the prefix's next
   shortcut (see [must_scan]); one with a verdict keeps its own state. *)
let validated t ~clock prefix all =
  match t.validator with
  | Some (Validator { state; filter; judge }) ->
    let kept = filter state ~now:!clock ~prefix all in
    t.must_scan <-
      (if kept != all && Option.is_none judge then Prefix.Set.add prefix t.must_scan
       else Prefix.Set.remove prefix t.must_scan);
    kept
  | None ->
    t.must_scan <- Prefix.Set.remove prefix t.must_scan;
    all

(* the best route after one candidate moved and the kept set changed by
   that candidate alone: [incumbent] is a most preferred kept candidate
   on attributes, so [moved] replaces it exactly when it is strictly
   better, and nothing else can; without an incumbent nothing was kept,
   so the moved route is the only candidate *)
let after_move ~incumbent moved =
  match (incumbent, moved) with
  | Some current, Some route when Decision.prefer_attrs route current < 0 -> moved
  | Some _, _ -> incumbent
  | None, _ -> moved

(* A decision over every candidate, with the oldest-route rule. *)
let rec reselect t ~clock prefix =
  Obs.Registry.Counter.incr t.obs.decisions_c;
  let e = Rib.entry t.rib prefix in
  decide t ~clock e prefix (Rib.entry_best e)

and decide t ~clock e prefix old_best =
  let kept = validated t ~clock prefix (admitted_candidates t ~clock e prefix) in
  install t ~clock e prefix old_best (Decision.best_with_incumbent ~incumbent:old_best kept)

(* The decision after one candidate moved: [peer]'s entry for [prefix] is
   now [route] ([None]: gone), in place of [previous].  The scan's result
   is known without the scan when nothing else can have moved the best
   route: no damping (suppression lifts with time alone), no crash since
   the prefix's last decision, and an incumbent not learned from [peer]
   (the holder of the best route withdrawing or changing it rescans).
   Then the validator decides on the moved route alone: its verdict
   keeps it or drops it, or asks for the scan; without a verdict, it
   filters every candidate, and must have kept every one now and at the
   prefix's last decision. *)
and reselect_after t ~clock e ~peer ~previous route prefix =
  Obs.Registry.Counter.incr t.obs.decisions_c;
  let old_best = Rib.entry_best e in
  let shortcut =
    Option.is_none t.damping
    && (not (Prefix.Set.mem prefix t.must_scan))
    &&
    match old_best with
    | Some incumbent -> not (Asn.equal incumbent.Route.learned_from peer)
    | None -> true
  in
  match t.validator with
  | Some (Validator { judge = None; _ }) ->
    let all = admitted_candidates t ~clock e prefix in
    let kept = validated t ~clock prefix all in
    install t ~clock e prefix old_best
      (if shortcut && kept == all then after_move ~incumbent:old_best route
       else Decision.best_with_incumbent ~incumbent:old_best kept)
  | Some (Validator { state; judge = Some judge; _ }) when shortcut ->
    (match judge state ~prefix ~incumbent:old_best ~previous route with
    | Keep -> install t ~clock e prefix old_best (after_move ~incumbent:old_best route)
    | Drop -> ()
    | Rescan -> decide t ~clock e prefix old_best)
  | None when shortcut ->
    install t ~clock e prefix old_best (after_move ~incumbent:old_best route)
  | Some _ | None -> decide t ~clock e prefix old_best

(* install a decision's result and propagate it if it changed *)
and install t ~clock e prefix old_best new_best =
  let changed =
    match (new_best, old_best) with
    | None, None -> false
    | Some n, Some o -> not (Route.equal n o)
    | Some _, None | None, Some _ -> true
  in
  if changed then begin
    Rib.install t.rib e new_best;
    if t.obs.live then
      Obs.Registry.Gauge.set t.obs.loc_rib_g
        (float_of_int (Rib.loc_rib_size t.rib));
    advertise_all t ~clock e prefix new_best;
    (* a change to a child route may alter a configured aggregate; the
       summary is strictly shorter, so this recursion terminates *)
    if not (Prefix.Set.is_empty t.aggregates) then
      Prefix.Set.iter
        (fun summary ->
          if Prefix.is_strict_subprefix ~sub:prefix ~of_:summary then
            refresh_aggregate t ~clock summary)
        t.aggregates
  end

and refresh_aggregate t ~clock summary =
  let children =
    List.filter
      (fun (p, _) -> Prefix.is_strict_subprefix ~sub:p ~of_:summary)
      (Rib.best_bindings t.rib)
  in
  (match children with
  | [] -> t.originated <- Prefix.Map.remove summary t.originated
  | (_, first) :: rest ->
    let as_path =
      List.fold_left
        (fun acc (_, r) -> As_path.aggregate acc r.Route.as_path)
        first.Route.as_path rest
    in
    (* the origin ASes of the components stand behind the aggregate; their
       communities (including any MOAS lists) are merged *)
    let communities =
      List.fold_left
        (fun acc (_, r) -> Community.Set.union acc r.Route.communities)
        first.Route.communities rest
    in
    let aggregate =
      {
        Route.prefix = summary;
        as_path;
        origin = first.Route.origin;
        learned_from = t.asn;
        local_pref = 100;
        communities;
      }
    in
    t.originated <- Prefix.Map.add summary aggregate t.originated);
  reselect t ~clock summary

let refresh t ~now prefix = reselect t ~clock:(ref now) prefix

let configure_aggregate t ~now summary =
  t.aggregates <- Prefix.Set.add summary t.aggregates;
  refresh_aggregate t ~clock:(ref now) summary

let remove_aggregate t ~now summary =
  if Prefix.Set.mem summary t.aggregates then begin
    t.aggregates <- Prefix.Set.remove summary t.aggregates;
    t.originated <- Prefix.Map.remove summary t.originated;
    reselect t ~clock:(ref now) summary
  end

let peer_down t ~now peer =
  match lookup t peer with
  | slot when slot >= 0 && established t slot ->
    (* the slot stays; what the peer heard from us is void with the
       session *)
    Bytes.set t.up slot '\000';
    reset_session t slot;
    let affected = Rib.flush_peer t.rib slot in
    let clock = ref now in
    List.iter (fun prefix -> reselect t ~clock prefix) affected
  | _ -> ()

let peer_up t ~now peer =
  let slot = slot_of t peer in
  if not (established t slot) then begin
    Bytes.set t.up slot '\001';
    let clock = ref now in
    (* initial table exchange: everything in the Loc-RIB goes out *)
    List.iter
      (fun (prefix, best) ->
        ignore
          (advertise_to_peer t ~clock (Rib.entry t.rib prefix) ~shared:Rib.unheard slot
             prefix (Some best)))
      (Rib.best_bindings t.rib)
  end

let crash t =
  (* everything protocol-level dies with the process; the static
     configuration — originated prefixes, aggregation rules, policy,
     validator — survives in NVRAM for [restart] *)
  (* the originated routes stay candidates while the Loc-RIB is empty,
     and a validator's state still describes the candidates before the
     crash, so the next decision of each of these prefixes must scan *)
  t.must_scan <-
    Prefix.Map.fold
      (fun prefix _ s -> Prefix.Set.add prefix s)
      t.originated
      (Prefix.Set.union t.must_scan (Rib.prefixes_in t.rib));
  Rib.clear t.rib;
  (* every session goes down; the slots stay *)
  Bytes.fill t.up 0 (Bytes.length t.up) '\000';
  Array.iteri (fun slot _ -> reset_session t slot) t.peer_ids;
  Option.iter (fun { flaps; _ } -> Hashtbl.reset flaps) t.damping

let restart t ~now =
  let clock = ref now in
  (* re-install the configured originations; with no sessions yet nothing
     is advertised — the network layer brings peers up afterwards *)
  Prefix.Map.iter (fun prefix _ -> reselect t ~clock prefix) t.originated;
  Prefix.Set.iter (fun summary -> refresh_aggregate t ~clock summary) t.aggregates

(* ------------------------------------------------------------------ *)
(* Inputs *)

let originate t ~now route =
  let route = { route with Route.learned_from = t.asn } in
  t.originated <- Prefix.Map.add route.Route.prefix route t.originated;
  reselect t ~clock:(ref now) route.Route.prefix

let withdraw_origin t ~now prefix =
  t.originated <- Prefix.Map.remove prefix t.originated;
  reselect t ~clock:(ref now) prefix

(* when a suppressed route will decay to the reuse threshold *)
let reuse_delay damping state ~now =
  let penalty = decayed_penalty damping state ~now in
  if penalty <= damping.reuse_threshold then 0.0
  else damping.half_life *. (Float.log (penalty /. damping.reuse_threshold) /. Float.log 2.0)

(* [update] from the peer at [slot] *)
let receive t ~clock slot (update : Update.t) =
  t.received_count <- t.received_count + 1;
  Obs.Registry.Counter.incr t.obs.received_c;
  let peer = update.Update.sender in
  let prefix = Update.prefix update in
  (* damping bookkeeping: announcements after the first and withdrawals
     count as flaps; a route crossing the suppress threshold schedules its
     own re-evaluation at the projected reuse time *)
  (match t.damping with
  | None -> ()
  | Some damper ->
    let now = !clock in
    let increment =
      match update.Update.payload with
      | Update.Announce _ -> damper.params.penalty_update
      | Update.Withdraw _ -> damper.params.penalty_withdraw
    in
    if note_flap damper ~now ~peer prefix ~increment then begin
      (* later flaps may push the penalty further up, so the timer re-arms
         itself until the route actually becomes reusable *)
      let rec recheck fire_time =
        if is_suppressed t ~peer prefix ~now:fire_time then begin
          let state = flap_state damper ~peer prefix in
          let delay = Float.max 0.1 (reuse_delay damper.params state ~now:fire_time) in
          transport_schedule t ~delay recheck
        end
        else reselect t ~clock:(ref fire_time) prefix
      in
      let state = flap_state damper ~peer prefix in
      let delay = Float.max 0.1 (reuse_delay damper.params state ~now) in
      transport_schedule t ~delay recheck
    end);
  let accepted =
    match update.Update.route with
    | None -> None
    | Some route as offered ->
      (* loop detection: a route that already crossed this AS is dropped,
         implicitly withdrawing any previous route from that peer *)
      if As_path.contains route.Route.as_path t.asn then None
      else if Policy.imports_unchanged t.policy && Asn.equal route.Route.learned_from peer
      then offered
      else t.policy.Policy.import ~peer (Route.received ~from:peer route)
  in
  let e = Rib.entry t.rib prefix in
  let previous = Rib.write_in e slot accepted in
  reselect_after t ~clock e ~peer ~previous accepted prefix

let handle_update ?slot t ~clock (update : Update.t) =
  match slot with
  | Some slot -> receive t ~clock slot update
  | None -> receive t ~clock (slot_of t update.Update.sender) update
