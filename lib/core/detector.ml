open Net

module StringSet = Set.Make (String)

type verify = now:float -> Prefix.t -> Asn.Set.t option

type backend =
  | Oracle of Origin_verification.t
  | Custom of verify
  | Detect_only
  | Community of Community_watch.t

type t = {
  self : Asn.t;
  verifier : verify option;
  watch : Community_watch.t option;
  on_alarm : Alarm.t -> unit;
  check_self_consistency : bool;
  mutable seen_signatures : StringSet.t;
  mutable alarms_rev : Alarm.t list;
  mutable alarm_count : int;
  (* entitled origin sets learned from the oracle; the MOASRR record does
     not evaporate once read, so the verdict is remembered and applied to
     every later candidate — this also keeps the filter monotone, which
     guarantees BGP convergence under partial deployment *)
  mutable verified : Asn.Set.t Prefix.Map.t;
  (* decoded MOAS lists of recently seen community sets, keyed by
     physical identity: a route keeps the set it was announced with as it
     propagates, so one decode serves every later decision that sees it *)
  mutable memo_sets : Bgp.Community.Set.t array;
  mutable memo_lists : Asn.Set.t option array;
  mutable memo_used : int;
  mutable memo_next : int;
  (* observability handles, inert when the registry is the noop *)
  alarms_c : Obs.Registry.Counter.t;
  verify_calls_c : Obs.Registry.Counter.t;
  discarded_c : Obs.Registry.Counter.t;
}

let create ?(backend = Detect_only) ?(on_alarm = fun _ -> ())
    ?(check_self_consistency = true) ?(metrics = Obs.Registry.noop) ~self () =
  let verifier =
    match backend with
    | Custom v -> Some v
    | Oracle oracle ->
      Some (fun ~now:_ prefix -> Origin_verification.query oracle prefix)
    | Detect_only | Community _ -> None
  in
  let watch = match backend with Community w -> Some w | _ -> None in
  let labels =
    if Obs.Registry.is_noop metrics then [] else [ ("as", Asn.to_string self) ]
  in
  {
    self;
    verifier;
    watch;
    on_alarm;
    check_self_consistency;
    seen_signatures = StringSet.empty;
    alarms_rev = [];
    alarm_count = 0;
    verified = Prefix.Map.empty;
    memo_sets = [||];
    memo_lists = [||];
    memo_used = 0;
    memo_next = 0;
    alarms_c = Obs.Registry.counter metrics ~labels "moas_alarms";
    verify_calls_c = Obs.Registry.counter metrics ~labels "moas_verify_calls";
    discarded_c =
      Obs.Registry.counter metrics ~labels "moas_routes_discarded";
  }

let distinct_lists lists =
  List.sort_uniq Asn.Set.compare lists

(* slots in the decode memo; past this many distinct community sets the
   oldest entry is overwritten *)
let memo_slots = 16

let rec find_memo t communities i =
  if i = t.memo_used then begin
    let list = Moas_list.decode communities in
    if t.memo_used = 0 then begin
      t.memo_sets <- Array.make memo_slots communities;
      t.memo_lists <- Array.make memo_slots list
    end;
    let slot = t.memo_next in
    t.memo_sets.(slot) <- communities;
    t.memo_lists.(slot) <- list;
    t.memo_next <- (slot + 1) mod memo_slots;
    if t.memo_used < memo_slots then t.memo_used <- t.memo_used + 1;
    list
  end
  else if t.memo_sets.(i) == communities then t.memo_lists.(i)
  else find_memo t communities (i + 1)

(* Moas_list.decode through the memo *)
let decode t communities =
  if Bgp.Community.Set.is_empty communities then None
  else find_memo t communities 0

let rec tail_set = function
  | [] -> Asn.Set.empty
  | [ Bgp.As_path.Set s ] -> s
  | [ Bgp.As_path.Seq _ ] -> Asn.Set.empty
  | _ :: rest -> tail_set rest

(* The list a checker uses for a route (Moas_list.effective), in a form
   that allocates nothing: the carried MOAS list, else the AS_SET the
   path ends in (footnote 3: aggregation implies the whole set), else
   empty for the implicit list {origin}, which the checks below compare
   by AS number. *)
let listed t r =
  match decode t r.Bgp.Route.communities with
  | Some members -> members
  | None -> tail_set r.Bgp.Route.as_path

let origin t r = Bgp.Route.origin_as ~self:t.self r

let effective_set t r =
  let l = listed t r in
  if Asn.Set.is_empty l then Asn.Set.singleton (origin t r) else l

let is_singleton_of asn s =
  (not (Asn.Set.is_empty s))
  && Asn.equal (Asn.Set.min_elt s) asn
  && Asn.equal (Asn.Set.max_elt s) asn

(* Moas_list.consistent of each route's effective list with a first
   route's: its explicit list [l], or its implicit {o} *)
let rec agree_with_list t l = function
  | [] -> true
  | r :: rest ->
    let lr = listed t r in
    (if Asn.Set.is_empty lr then is_singleton_of (origin t r) l
     else lr == l || Asn.Set.equal lr l)
    && agree_with_list t l rest

let rec agree_with_origin t o = function
  | [] -> true
  | r :: rest ->
    let lr = listed t r in
    (if Asn.Set.is_empty lr then Asn.equal (origin t r) o else is_singleton_of o lr)
    && agree_with_origin t o rest

let all_agree t = function
  | [] -> true
  | first :: rest ->
    let l = listed t first in
    if Asn.Set.is_empty l then agree_with_origin t (origin t first) rest
    else agree_with_list t l rest

let raise_alarm t ~now ~prefix ~lists ~origins =
  let alarm =
    Alarm.make ~observer:t.self ~prefix ~time:now ~conflicting_lists:lists
      ~origins_seen:origins
  in
  let signature = Alarm.signature alarm in
  if not (StringSet.mem signature t.seen_signatures) then begin
    t.seen_signatures <- StringSet.add signature t.seen_signatures;
    t.alarms_rev <- alarm :: t.alarms_rev;
    t.alarm_count <- t.alarm_count + 1;
    Obs.Registry.Counter.incr t.alarms_c;
    t.on_alarm alarm
  end

(* Each filter below first checks that every route passes, the common
   case, which allocates nothing; the filter's predicate is a closure
   built per call. *)
let rec all_entitled t entitled = function
  | [] -> true
  | r :: rest -> Asn.Set.mem (origin t r) entitled && all_entitled t entitled rest

let filter_entitled t entitled routes =
  if all_entitled t entitled routes then routes
  else begin
    let kept = Bgp.Route.filter (fun r -> Asn.Set.mem (origin t r) entitled) routes in
    Obs.Registry.Counter.add t.discarded_c (List.length routes - List.length kept);
    kept
  end

let self_consistent t r =
  match decode t r.Bgp.Route.communities with
  | None -> true
  | Some members -> Asn.Set.mem (origin t r) members

let rec all_self_consistent t = function
  | [] -> true
  | r :: rest -> self_consistent t r && all_self_consistent t rest

(* the Community backend replaces the list-consistency machinery wholesale:
   the watch judges community dynamics, each anomaly becomes an alarm (the
   established vs observed tagger sets standing in for conflicting lists),
   and routing is never filtered — community telemetry alone cannot say
   which origin is entitled, only that something moved *)
let community_validator t watch : Bgp.Router.validator =
 fun ~now ~prefix routes ->
  let anomalies = Community_watch.observe watch ~now ~prefix routes in
  List.iter
    (fun a ->
      let lists =
        distinct_lists
          [
            a.Community_watch.a_taggers_before; a.Community_watch.a_taggers_now;
          ]
      in
      raise_alarm t ~now ~prefix ~lists ~origins:a.Community_watch.a_origins)
    anomalies;
  routes

let validator t : Bgp.Router.validator =
 fun ~now ~prefix routes ->
  match t.watch with
  | Some watch -> community_validator t watch ~now ~prefix routes
  | None ->
  let routes =
    if t.check_self_consistency && not (all_self_consistent t routes) then
      Bgp.Route.filter (self_consistent t) routes
    else routes
  in
  (* a verdict already obtained from the registry applies permanently *)
  let routes =
    match Prefix.Map.find_opt prefix t.verified with
    | Some entitled -> filter_entitled t entitled routes
    | None -> routes
  in
  if all_agree t routes then routes
  else begin
    let lists = distinct_lists (List.map (effective_set t) routes) in
    let origins =
      List.fold_left (fun acc r -> Asn.Set.add (origin t r) acc) Asn.Set.empty routes
    in
    raise_alarm t ~now ~prefix ~lists ~origins;
    match t.verifier with
    | None -> routes (* detect-only deployment: alarm but do not filter *)
    | Some verify ->
      Obs.Registry.Counter.incr t.verify_calls_c;
      (match verify ~now prefix with
      | None -> routes (* no verdict obtainable: fail open *)
      | Some entitled ->
        t.verified <- Prefix.Map.add prefix entitled t.verified;
        filter_entitled t entitled routes)
  end

let alarms t = List.rev t.alarms_rev

let alarm_count t = t.alarm_count

let reset t =
  t.seen_signatures <- StringSet.empty;
  t.alarms_rev <- [];
  t.alarm_count <- 0
