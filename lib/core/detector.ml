open Net

type verify = now:float -> Prefix.t -> Asn.Set.t option

type backend =
  | Oracle of Origin_verification.t
  | Custom of verify
  | Detect_only
  | Community of Community_watch.t

(* One prefix's last pass.  [clean]: after the self-consistency and
   entitlement filters every remaining candidate agreed, so there was no
   alarm and no verification; [entitled] is the verdict the entitlement
   filter applied ([None]: no filter), and [dropped] the number of
   candidates it discarded. *)
type pass = {
  mutable clean : bool;
  mutable entitled : Asn.Set.t option;
  mutable dropped : int;
}

(* the alarms raised, keyed on their conflict: the prefix and the sorted
   distinct lists, compared structurally *)
module Seen = Set.Make (struct
  type t = Alarm.t

  let compare = Alarm.compare_conflict
end)

(* the observability handles, inert when the registry is the noop; every
   detector without a registry shares [inert] *)
type obs = {
  alarms_c : Obs.Registry.Counter.t;
  verify_calls_c : Obs.Registry.Counter.t;
  discarded_c : Obs.Registry.Counter.t;
}

let obs_of metrics ~labels =
  {
    alarms_c = Obs.Registry.counter metrics ~labels "moas_alarms";
    verify_calls_c = Obs.Registry.counter metrics ~labels "moas_verify_calls";
    discarded_c = Obs.Registry.counter metrics ~labels "moas_routes_discarded";
  }

let inert = obs_of Obs.Registry.noop ~labels:[]

type t = {
  self : Asn.t;
  backend : backend;
  on_alarm : Alarm.t -> unit;
  check_self_consistency : bool;
  mutable seen : Seen.t;
  mutable alarms_rev : Alarm.t list;
  mutable alarm_count : int;
  (* entitled origin sets learned from the oracle; the MOASRR record does
     not evaporate once read, so the verdict is remembered and applied to
     every later candidate — this also keeps the filter monotone, which
     guarantees BGP convergence under partial deployment *)
  mutable verified : Asn.Set.t Prefix.Map.t;
  (* what the last full pass over each prefix's candidates found, the
     state the verdict on one moved route starts from *)
  mutable passes : pass Prefix.Map.t;
  (* decoded MOAS lists of recently seen community sets, keyed by
     physical identity: a route keeps the set it was announced with as it
     propagates, so one decode serves every later decision that sees it *)
  mutable memo_sets : Bgp.Community.Set.t array;
  mutable memo_lists : Asn.Set.t option array;
  mutable memo_used : int;
  mutable memo_next : int;
  obs : obs;
}

let create ?(backend = Detect_only) ?(on_alarm = fun _ -> ())
    ?(check_self_consistency = true) ?(metrics = Obs.Registry.noop) ~self () =
  {
    self;
    backend;
    on_alarm;
    check_self_consistency;
    seen = Seen.empty;
    alarms_rev = [];
    alarm_count = 0;
    verified = Prefix.Map.empty;
    passes = Prefix.Map.empty;
    memo_sets = [||];
    memo_lists = [||];
    memo_used = 0;
    memo_next = 0;
    obs =
      (if Obs.Registry.is_noop metrics then inert
       else obs_of metrics ~labels:[ ("as", Asn.to_string self) ]);
  }

let distinct_lists lists =
  List.sort_uniq Asn.Set.compare lists

(* slots in the decode memo; past this many distinct community sets the
   oldest entry is overwritten *)
let memo_slots = 16

(* the memo arrays start with two slots and double up to [memo_slots]:
   most detectors see one or two community sets *)
let grow_memo t communities list =
  let cap = Array.length t.memo_sets in
  let ncap = if cap = 0 then 2 else 2 * cap in
  let sets = Array.make ncap communities and lists = Array.make ncap list in
  Array.blit t.memo_sets 0 sets 0 cap;
  Array.blit t.memo_lists 0 lists 0 cap;
  t.memo_sets <- sets;
  t.memo_lists <- lists

let rec find_memo t communities i =
  if i = t.memo_used then begin
    let list = Moas_list.decode communities in
    if t.memo_used = Array.length t.memo_sets && t.memo_used < memo_slots then
      grow_memo t communities list;
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

let is_singleton_of asn s =
  (not (Asn.Set.is_empty s))
  && Asn.equal (Asn.Set.min_elt s) asn
  && Asn.equal (Asn.Set.max_elt s) asn

let rec has_singleton asn = function
  | [] -> false
  | s :: rest -> is_singleton_of asn s || has_singleton asn rest

let rec has_list l = function
  | [] -> false
  | s :: rest -> s == l || Asn.Set.equal s l || has_list l rest

(* The distinct effective lists of [routes] (Moas_list.effective), in
   any order: a conflict has a handful of distinct lists over any number
   of candidates, and an implicit list {origin} is built once per
   origin. *)
let rec effective_lists t acc = function
  | [] -> acc
  | r :: rest ->
    let l = listed t r in
    let acc =
      if Asn.Set.is_empty l then
        let o = origin t r in
        if has_singleton o acc then acc else Asn.Set.singleton o :: acc
      else if has_list l acc then acc
      else l :: acc
    in
    effective_lists t acc rest

(* Moas_list.consistent of two routes' effective lists: an explicit
   list, or the implicit {origin} *)
let agree t a b =
  let la = listed t a and lb = listed t b in
  if Asn.Set.is_empty la then
    if Asn.Set.is_empty lb then Asn.equal (origin t a) (origin t b)
    else is_singleton_of (origin t a) lb
  else if Asn.Set.is_empty lb then is_singleton_of (origin t b) la
  else la == lb || Asn.Set.equal la lb

let rec all_agree_with t first = function
  | [] -> true
  | r :: rest -> agree t first r && all_agree_with t first rest

let all_agree t = function [] -> true | first :: rest -> all_agree_with t first rest

let raise_alarm t ~now ~prefix ~lists ~origins =
  let alarm =
    Alarm.make ~observer:t.self ~prefix ~time:now ~conflicting_lists:lists
      ~origins_seen:origins
  in
  if not (Seen.mem alarm t.seen) then begin
    t.seen <- Seen.add alarm t.seen;
    t.alarms_rev <- alarm :: t.alarms_rev;
    t.alarm_count <- t.alarm_count + 1;
    Obs.Registry.Counter.incr t.obs.alarms_c;
    t.on_alarm alarm
  end

(* Each filter below first checks that every route passes, the common
   case, which allocates nothing; the filter's predicate is a closure
   built per call. *)
let rec all_entitled t entitled = function
  | [] -> true
  | r :: rest -> Asn.Set.mem (origin t r) entitled && all_entitled t entitled rest

(* the entitled routes; the pass notes how many were discarded *)
let filter_entitled t pass entitled routes =
  if all_entitled t entitled routes then routes
  else begin
    let kept = Bgp.Route.filter (fun r -> Asn.Set.mem (origin t r) entitled) routes in
    pass.dropped <- List.length routes - List.length kept;
    Obs.Registry.Counter.add t.obs.discarded_c pass.dropped;
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
let community_validator t watch ~now ~prefix routes =
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

let pass_of t prefix =
  match Prefix.Map.find prefix t.passes with
  | pass -> pass
  | exception Not_found ->
    let pass = { clean = false; entitled = None; dropped = 0 } in
    t.passes <- Prefix.Map.add prefix pass t.passes;
    pass

let verify t ~now prefix =
  match t.backend with
  | Oracle oracle -> Origin_verification.query oracle prefix
  | Custom verify -> verify ~now prefix
  | Detect_only | Community _ -> None

let filter t ~now ~prefix routes =
  let routes =
    if t.check_self_consistency && not (all_self_consistent t routes) then
      Bgp.Route.filter (self_consistent t) routes
    else routes
  in
  let pass = pass_of t prefix in
  (* a verdict already obtained from the registry applies permanently *)
  let entitled = Prefix.Map.find_opt prefix t.verified in
  pass.entitled <- entitled;
  pass.dropped <- 0;
  let routes =
    match entitled with
    | Some entitled -> filter_entitled t pass entitled routes
    | None -> routes
  in
  pass.clean <- all_agree t routes;
  if pass.clean then routes
  else begin
    let lists = List.sort Asn.Set.compare (effective_lists t [] routes) in
    let origins =
      List.fold_left (fun acc r -> Asn.Set.add (origin t r) acc) Asn.Set.empty routes
    in
    raise_alarm t ~now ~prefix ~lists ~origins;
    match t.backend with
    | Detect_only | Community _ ->
      routes (* detect-only deployment: alarm but do not filter *)
    | Oracle _ | Custom _ ->
      Obs.Registry.Counter.incr t.obs.verify_calls_c;
      (match verify t ~now prefix with
      | None -> routes (* no verdict obtainable: fail open *)
      | Some entitled ->
        t.verified <- Prefix.Map.add prefix entitled t.verified;
        filter_entitled t pass entitled routes)
  end

(* whether a route passes the self-consistency filter, and the
   entitlement filter of [pass] *)
let consistent t r = (not t.check_self_consistency) || self_consistent t r

let entitled_by pass t r =
  match pass.entitled with
  | None -> true
  | Some entitled -> Asn.Set.mem (origin t r) entitled

(* A verdict's effect on the pass and the discard counter, as the pass
   it stands for would have them: [previous] leaves the candidates, and
   [discarded] (0 or 1) is whether the entitlement filter discards the
   moved route. *)
let follow t pass ~previous ~discarded (verdict : Bgp.Router.verdict) =
  (match pass.entitled with
  | None -> ()
  | Some _ ->
    let left =
      match previous with
      | Some r when consistent t r && not (entitled_by pass t r) -> 1
      | Some _ | None -> 0
    in
    pass.dropped <- pass.dropped - left + discarded;
    Obs.Registry.Counter.add t.obs.discarded_c pass.dropped);
  verdict

(* the verdict on a moved route that passed the filters *)
let agreeing t ~incumbent r : Bgp.Router.verdict =
  match incumbent with
  | Some current when not (agree t r current) -> Rescan
  | Some _ | None -> Keep

(* The verdict on one moved route, after a clean pass: every kept
   candidate carries the incumbent's list, so a moved route that passes
   the filters and agrees with the incumbent (or is alone) keeps the
   pass clean, one that fails a filter is discarded as the pass would
   discard it, and a withdrawal leaves the rest agreeing.  A prefix with
   no pass yet has had only verdicts: its candidates agree and none was
   verified, as after a clean pass without an entitlement filter. *)
let judge t ~prefix ~incumbent ~previous moved : Bgp.Router.verdict =
  match Prefix.Map.find prefix t.passes with
  | exception Not_found ->
    (match moved with
    | Some r when not (consistent t r) -> Drop
    | Some r -> agreeing t ~incumbent r
    | None -> Keep)
  | pass when not pass.clean -> Rescan
  | pass ->
    (match moved with
    | None -> follow t pass ~previous ~discarded:0 Keep
    | Some r when not (consistent t r) -> follow t pass ~previous ~discarded:0 Drop
    | Some r when not (entitled_by pass t r) -> follow t pass ~previous ~discarded:1 Drop
    | Some r ->
      (match agreeing t ~incumbent r with
      | Rescan -> Rescan
      | verdict -> follow t pass ~previous ~discarded:0 verdict))

let verdicts = Some judge

let validator t : Bgp.Router.validator =
  match t.backend with
  | Community watch -> Bgp.Router.scan_only (community_validator t watch)
  | Oracle _ | Custom _ | Detect_only -> Validator { state = t; filter; judge = verdicts }

let alarms t = List.rev t.alarms_rev

let alarm_count t = t.alarm_count

let reset t =
  t.seen <- Seen.empty;
  t.alarms_rev <- [];
  t.alarm_count <- 0
