open Net

type verdict = Keep | Drop | Rescan

type validator = {
  filter : now:float -> prefix:Prefix.t -> Route.t list -> Route.t list;
  judge :
    (prefix:Prefix.t ->
    incumbent:Route.t option ->
    previous:Route.t option ->
    Route.t option ->
    verdict)
    option;
}

let scan_only filter = { filter; judge = None }

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

(* One BGP session's export state: what the peer last heard, to suppress
   duplicate updates and to know when an explicit withdrawal is due, and
   the MRAI state -- the time of the last advertisement batch and the
   prefixes whose advertisement is deferred until the interval expires
   (both read only when [mrai > 0]). *)
type session = {
  mutable heard : Route.t Prefix.Map.t;
  mutable last_batch : float;
  mutable deferred : Prefix.Set.t;
}

let fresh_session () =
  { heard = Prefix.Map.empty; last_batch = neg_infinity; deferred = Prefix.Set.empty }

type t = {
  asn : Asn.t;
  policy : Policy.t;
  mutable validator : validator option;
  mrai : float;
  damping : damper option;
  rib : Rib.t;
  (* the prefixes whose next decision must scan every candidate: at its
     last decision a validator without a verdict dropped one, or a crash
     emptied the RIBs under the validator's state.  Every other prefix's
     best route is a most preferred kept candidate (on attributes), which
     is what lets one changed candidate be judged against it alone. *)
  mutable must_scan : Prefix.Set.t;
  (* the peers with an established session in increasing AS order, and
     each one's export state at the same index *)
  mutable peer_ids : Asn.t array;
  mutable sessions : session array;
  mutable originated : Route.t Prefix.Map.t;
  mutable aggregates : Prefix.Set.t;
  mutable send : (peer:Asn.t -> Update.t -> unit) option;
  mutable schedule : (delay:float -> (float -> unit) -> unit) option;
  mutable received_count : int;
  mutable sent_count : int;
  (* per-AS observability handles; inert when the registry is the noop *)
  metrics_live : bool;
  sent_c : Obs.Registry.Counter.t;
  received_c : Obs.Registry.Counter.t;
  decisions_c : Obs.Registry.Counter.t;
  loc_rib_g : Obs.Registry.Gauge.t;
}

let create ?(policy = Policy.default) ?validator ?(mrai = 0.0) ?damping
    ?(metrics = Obs.Registry.noop) asn =
  if mrai < 0.0 then invalid_arg "Router.create: negative mrai";
  (match damping with
  | Some d when d.reuse_threshold >= d.suppress_threshold ->
    invalid_arg "Router.create: damping reuse must be below suppress"
  | _ -> ());
  let labels =
    if Obs.Registry.is_noop metrics then [] else [ ("as", Asn.to_string asn) ]
  in
  {
    asn;
    policy;
    validator;
    mrai;
    damping =
      Option.map (fun params -> { params; flaps = Hashtbl.create 16 }) damping;
    rib = Rib.create ();
    must_scan = Prefix.Set.empty;
    peer_ids = [||];
    sessions = [||];
    originated = Prefix.Map.empty;
    aggregates = Prefix.Set.empty;
    send = None;
    schedule = None;
    received_count = 0;
    sent_count = 0;
    metrics_live = not (Obs.Registry.is_noop metrics);
    sent_c = Obs.Registry.counter metrics ~labels "bgp_updates_sent";
    received_c = Obs.Registry.counter metrics ~labels "bgp_updates_received";
    decisions_c = Obs.Registry.counter metrics ~labels "bgp_decisions";
    loc_rib_g = Obs.Registry.gauge metrics ~labels "bgp_loc_rib_size";
  }

(* the slot of the peer's session, or -1 without one *)
let rec find_slot ids (peer : Asn.t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let at = ids.(mid) in
    if at = peer then mid
    else if at < peer then find_slot ids peer (mid + 1) hi
    else find_slot ids peer lo mid

let session_index t peer = find_slot t.peer_ids peer 0 (Array.length t.peer_ids)

let array_of_set t s =
  let ids = Array.make (Asn.Set.cardinal s) t.asn in
  ignore (Asn.Set.fold (fun peer i -> ids.(i) <- peer; i + 1) s 0);
  ids

(* the sessions of [peers] and of the current peers, in increasing AS
   order; a current peer keeps its session.  The Adj-RIB-In gets a slot
   for every new peer. *)
let add_peers t peers =
  if Asn.Set.mem t.asn peers then invalid_arg "Router.add_peer: self peering";
  let ids =
    if Array.length t.peer_ids = 0 then array_of_set t peers
    else array_of_set t (Array.fold_right Asn.Set.add t.peer_ids peers)
  in
  if Array.length ids > Array.length t.peer_ids then begin
    t.sessions <-
      Array.map
        (fun peer ->
          match session_index t peer with
          | -1 -> fresh_session ()
          | slot -> t.sessions.(slot))
        ids;
    t.peer_ids <- ids;
    Rib.add_peers t.rib ids
  end

let add_peer t peer = add_peers t (Asn.Set.singleton peer)

let peers t = Array.to_list t.peer_ids

let set_transport t ~send ~schedule =
  t.send <- Some send;
  t.schedule <- Some schedule

let transport_send t ~peer update =
  match t.send with
  | Some send ->
    t.sent_count <- t.sent_count + 1;
    Obs.Registry.Counter.incr t.sent_c;
    send ~peer update
  | None -> failwith "Router: transport not wired (call set_transport)"

let transport_schedule t ~delay k =
  match t.schedule with
  | Some schedule -> schedule ~delay k
  | None -> failwith "Router: transport not wired (call set_transport)"

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
let candidates t prefix =
  let learned = Rib.routes_in t.rib prefix in
  match Prefix.Map.find_opt prefix t.originated with
  | Some r -> r :: learned
  | None -> learned

let admitted_candidates t ~now prefix =
  match t.damping with
  | None -> candidates t prefix
  | Some _ -> Route.filter (admitted t ~now prefix) (candidates t prefix)

let best t prefix = Rib.best t.rib prefix

let best_origin t prefix =
  Option.map (fun r -> Route.origin_as ~self:t.asn r) (best t prefix)

let rib t = t.rib

let updates_received t = t.received_count
let updates_sent t = t.sent_count

(* ------------------------------------------------------------------ *)
(* Advertisement: compute what a peer should currently hear for a prefix
   and emit an UPDATE only if it differs from what it last heard.  The
   callers pass the prefix's best route, looked up once per change rather
   than once per peer.                                                    *)

(* [shared] holds the best route as this AS advertises it: the first peer
   whose export returns the route itself builds it, and every later peer
   of the same change reuses it. *)
let desired_advertisement t ~peer ~shared best =
  match best with
  | None -> None
  | Some route ->
    (* split horizon: never advertise a route back to the peer that
       supplied it *)
    if (not (As_path.length route.Route.as_path = 0))
       && Asn.equal route.Route.learned_from peer
    then None
    else
      (match t.policy.Policy.export ~peer route with
      | None -> None
      | Some exported when exported != route -> Some (Route.advertised_by t.asn exported)
      | Some _ ->
        (match !shared with
        | Some _ as advertised -> advertised
        | None ->
          let advertised = Some (Route.advertised_by t.asn route) in
          shared := advertised;
          advertised))

let sync_peer_prefix t session ~peer ~shared prefix best =
  let desired = desired_advertisement t ~peer ~shared best in
  let current = Prefix.Map.find_opt prefix session.heard in
  match (desired, current) with
  | None, None -> ()
  | Some d, Some c when Route.equal d c -> ()
  | Some d, _ ->
    session.heard <- Prefix.Map.add prefix d session.heard;
    transport_send t ~peer (Update.announce ~sender:t.asn d)
  | None, Some _ ->
    session.heard <- Prefix.Map.remove prefix session.heard;
    transport_send t ~peer (Update.withdraw ~sender:t.asn prefix)

(* MRAI gating: a peer whose last batch is too recent gets the prefix
   queued; a timer fires when the interval expires and syncs every queued
   prefix at once. *)
let rec advertise_to_peer t ~now ~shared peer session prefix best =
  if t.mrai <= 0.0 then sync_peer_prefix t session ~peer ~shared prefix best
  else if now -. session.last_batch >= t.mrai then begin
    sync_peer_prefix t session ~peer ~shared prefix best;
    session.last_batch <- now
  end
  else begin
    let was_empty = Prefix.Set.is_empty session.deferred in
    session.deferred <- Prefix.Set.add prefix session.deferred;
    if was_empty then
      transport_schedule t
        ~delay:(session.last_batch +. t.mrai -. now)
        (fun fire_time -> flush_deferred t ~now:fire_time peer)
  end

(* the timer names the peer, not the session: a session that went down
   and came back up in the meantime is flushed as it is now *)
and flush_deferred t ~now peer =
  match session_index t peer with
  | -1 -> ()
  | slot ->
    let session = t.sessions.(slot) in
    let queued = session.deferred in
    session.deferred <- Prefix.Set.empty;
    if not (Prefix.Set.is_empty queued) then begin
      session.last_batch <- now;
      Prefix.Set.iter
        (fun prefix ->
          sync_peer_prefix t session ~peer ~shared:(ref None) prefix
            (Rib.best t.rib prefix))
        queued
    end

let advertise_all t ~now prefix best =
  let shared = ref None in
  for slot = 0 to Array.length t.peer_ids - 1 do
    advertise_to_peer t ~now ~shared t.peer_ids.(slot) t.sessions.(slot) prefix best
  done

(* ------------------------------------------------------------------ *)
(* Decision *)

(* The validator's filter over the admitted candidates.  A validator
   without a verdict that drops a candidate bars the prefix's next
   shortcut (see [must_scan]); one with a verdict keeps its own state. *)
let validated t ~now prefix all =
  match t.validator with
  | Some { filter; judge } ->
    let kept = filter ~now ~prefix all in
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
let rec reselect t ~now prefix =
  Obs.Registry.Counter.incr t.decisions_c;
  decide t ~now prefix (Rib.best t.rib prefix)

and decide t ~now prefix old_best =
  let kept = validated t ~now prefix (admitted_candidates t ~now prefix) in
  install t ~now prefix old_best (Decision.best_with_incumbent ~incumbent:old_best kept)

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
and reselect_after t ~now ~peer ~previous route prefix =
  Obs.Registry.Counter.incr t.decisions_c;
  let old_best = Rib.best t.rib prefix in
  let shortcut =
    Option.is_none t.damping
    && (not (Prefix.Set.mem prefix t.must_scan))
    &&
    match old_best with
    | Some incumbent -> not (Asn.equal incumbent.Route.learned_from peer)
    | None -> true
  in
  match t.validator with
  | Some { judge = None; _ } ->
    let all = admitted_candidates t ~now prefix in
    let kept = validated t ~now prefix all in
    install t ~now prefix old_best
      (if shortcut && kept == all then after_move ~incumbent:old_best route
       else Decision.best_with_incumbent ~incumbent:old_best kept)
  | Some { judge = Some judge; _ } when shortcut ->
    (match judge ~prefix ~incumbent:old_best ~previous route with
    | Keep -> install t ~now prefix old_best (after_move ~incumbent:old_best route)
    | Drop -> ()
    | Rescan -> decide t ~now prefix old_best)
  | None when shortcut ->
    install t ~now prefix old_best (after_move ~incumbent:old_best route)
  | Some _ | None -> decide t ~now prefix old_best

(* install a decision's result and propagate it if it changed *)
and install t ~now prefix old_best new_best =
  let changed =
    match (new_best, old_best) with
    | None, None -> false
    | Some n, Some o -> not (Route.equal n o)
    | Some _, None | None, Some _ -> true
  in
  if changed then begin
    (match new_best with
    | Some route -> Rib.set_best t.rib route
    | None -> Rib.clear_best t.rib prefix);
    if t.metrics_live then
      Obs.Registry.Gauge.set t.loc_rib_g
        (float_of_int (Rib.loc_rib_size t.rib));
    advertise_all t ~now prefix new_best;
    (* a change to a child route may alter a configured aggregate; the
       summary is strictly shorter, so this recursion terminates *)
    if not (Prefix.Set.is_empty t.aggregates) then
      Prefix.Set.iter
        (fun summary ->
          if Prefix.is_strict_subprefix ~sub:prefix ~of_:summary then
            refresh_aggregate t ~now summary)
        t.aggregates
  end

and refresh_aggregate t ~now summary =
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
  reselect t ~now summary

let refresh t ~now prefix = reselect t ~now prefix

let configure_aggregate t ~now summary =
  t.aggregates <- Prefix.Set.add summary t.aggregates;
  refresh_aggregate t ~now summary

let remove_aggregate t ~now summary =
  if Prefix.Set.mem summary t.aggregates then begin
    t.aggregates <- Prefix.Set.remove summary t.aggregates;
    t.originated <- Prefix.Map.remove summary t.originated;
    reselect t ~now summary
  end

let peer_down t ~now peer =
  let slot = session_index t peer in
  if slot >= 0 then begin
    (* what the peer heard from us is void with the session *)
    let keep i = if i < slot then i else i + 1 in
    let n = Array.length t.peer_ids - 1 in
    t.peer_ids <- Array.init n (fun i -> t.peer_ids.(keep i));
    t.sessions <- Array.init n (fun i -> t.sessions.(keep i));
    let affected = Rib.flush_peer t.rib ~peer in
    List.iter (fun prefix -> reselect t ~now prefix) affected
  end

let peer_up t ~now peer =
  if session_index t peer < 0 then begin
    add_peer t peer;
    let session = t.sessions.(session_index t peer) in
    (* initial table exchange: everything in the Loc-RIB goes out *)
    List.iter
      (fun (prefix, best) ->
        advertise_to_peer t ~now ~shared:(ref None) peer session prefix (Some best))
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
  t.peer_ids <- [||];
  t.sessions <- [||];
  Option.iter (fun { flaps; _ } -> Hashtbl.reset flaps) t.damping

let restart t ~now =
  (* re-install the configured originations; with no sessions yet nothing
     is advertised — the network layer brings peers up afterwards *)
  Prefix.Map.iter (fun prefix _ -> reselect t ~now prefix) t.originated;
  Prefix.Set.iter (fun summary -> refresh_aggregate t ~now summary) t.aggregates

(* ------------------------------------------------------------------ *)
(* Inputs *)

let originate t ~now route =
  let route = { route with Route.learned_from = t.asn } in
  t.originated <- Prefix.Map.add route.Route.prefix route t.originated;
  reselect t ~now route.Route.prefix

let withdraw_origin t ~now prefix =
  t.originated <- Prefix.Map.remove prefix t.originated;
  reselect t ~now prefix

(* when a suppressed route will decay to the reuse threshold *)
let reuse_delay damping state ~now =
  let penalty = decayed_penalty damping state ~now in
  if penalty <= damping.reuse_threshold then 0.0
  else damping.half_life *. (Float.log (penalty /. damping.reuse_threshold) /. Float.log 2.0)

let handle_update t ~now (update : Update.t) =
  t.received_count <- t.received_count + 1;
  Obs.Registry.Counter.incr t.received_c;
  let peer = update.Update.sender in
  let prefix = Update.prefix update in
  (* damping bookkeeping: announcements after the first and withdrawals
     count as flaps; a route crossing the suppress threshold schedules its
     own re-evaluation at the projected reuse time *)
  (match t.damping with
  | None -> ()
  | Some damper ->
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
        else reselect t ~now:fire_time prefix
      in
      let state = flap_state damper ~peer prefix in
      let delay = Float.max 0.1 (reuse_delay damper.params state ~now) in
      transport_schedule t ~delay recheck
    end);
  let accepted =
    match update.Update.payload with
    | Update.Announce route ->
      (* loop detection: a route that already crossed this AS is dropped,
         implicitly withdrawing any previous route from that peer *)
      if As_path.contains route.Route.as_path t.asn then None
      else t.policy.Policy.import ~peer (Route.received ~from:peer route)
    | Update.Withdraw _ -> None
  in
  let previous = Rib.replace_in t.rib ~peer prefix accepted in
  reselect_after t ~now ~peer ~previous accepted prefix
