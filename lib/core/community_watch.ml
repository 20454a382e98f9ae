open Net

module StringSet = Set.Make (String)

type reason = Tagger_churn | Origin_retag | Scrub_event | Path_inconsistency

let reason_to_string = function
  | Tagger_churn -> "tagger-churn"
  | Origin_retag -> "origin-retag"
  | Scrub_event -> "scrub-event"
  | Path_inconsistency -> "path-inconsistency"

let all_reasons =
  [ Tagger_churn; Origin_retag; Scrub_event; Path_inconsistency ]

type anomaly = {
  a_prefix : Prefix.t;
  a_time : float;
  a_reason : reason;
  a_origin : Asn.t;  (** the origin of the route that tripped the rule *)
  a_taggers_before : Asn.Set.t;  (** tagger set established for the prefix *)
  a_taggers_now : Asn.Set.t;  (** tagger set including the new evidence *)
  a_origins : Asn.Set.t;  (** every origin observed, current one included *)
}

(* per-prefix community-dynamics state *)
type prefix_state = {
  mutable values_seen : Bgp.Community.Set.t;
  mutable taggers_seen : Asn.Set.t;
  mutable origins_seen : Asn.Set.t;
  mutable had_communities : bool;
  (* the self-applied tags last observed per origin, nonempty only *)
  mutable self_tags : Bgp.Community.Set.t Asn.Map.t;
}

type t = {
  self : Asn.t;
  warmup_until : float;
  mutable prefixes : prefix_state Prefix.Map.t;
  mutable fired : StringSet.t;
  mutable anomalies_rev : anomaly list;
  mutable anomaly_count : int;
  mutable event_count : int;
  mutable reason_tally : (reason * int) list;
  events_c : Obs.Registry.Counter.t;
  alarm_counter : reason -> Obs.Registry.Counter.t;
}

let create ?(warmup_until = 0.0) ?(metrics = Obs.Registry.noop) ~self () =
  let labels = [ ("as", Asn.to_string self) ] in
  let alarm_counters =
    List.map
      (fun r ->
        ( r,
          Obs.Registry.counter metrics
            ~labels:(("reason", reason_to_string r) :: labels)
            "community_alarms_total" ))
      all_reasons
  in
  {
    self;
    warmup_until;
    prefixes = Prefix.Map.empty;
    fired = StringSet.empty;
    anomalies_rev = [];
    anomaly_count = 0;
    event_count = 0;
    reason_tally = List.map (fun r -> (r, 0)) all_reasons;
    events_c = Obs.Registry.counter metrics ~labels "community_events_total";
    alarm_counter = (fun r -> List.assoc r alarm_counters);
  }

let state_for t prefix =
  match Prefix.Map.find_opt prefix t.prefixes with
  | Some st -> st
  | None ->
    let st =
      {
        values_seen = Bgp.Community.Set.empty;
        taggers_seen = Asn.Set.empty;
        origins_seen = Asn.Set.empty;
        had_communities = false;
        self_tags = Asn.Map.empty;
      }
    in
    t.prefixes <- Prefix.Map.add prefix st t.prefixes;
    st

(* The dynamics deliberately ignore two kinds of community value: MOAS-list
   members (that is the other detector's signal — this one must work when
   the list is scrubbed away) and the RFC 1997 reserved range. *)
let relevant_values communities =
  Bgp.Community.Set.filter
    (fun c ->
      c.Bgp.Community.value <> Moas_list.ml_val
      && not (Asn.equal c.Bgp.Community.asn Bgp.Community.well_known_asn))
    communities

let taggers_of values =
  Bgp.Community.Set.fold
    (fun c acc -> Asn.Set.add c.Bgp.Community.asn acc)
    values Asn.Set.empty

let fire t ~prefix ~now ~reason ~origin ~before ~evidence ~origins =
  let signature =
    Printf.sprintf "%s|%s|%s" (Prefix.to_string prefix)
      (reason_to_string reason) (Asn.to_string origin)
  in
  if StringSet.mem signature t.fired then None
  else begin
    t.fired <- StringSet.add signature t.fired;
    let anomaly =
      {
        a_prefix = prefix;
        a_time = now;
        a_reason = reason;
        a_origin = origin;
        a_taggers_before = before;
        a_taggers_now = Asn.Set.union before evidence;
        a_origins = origins;
      }
    in
    t.anomalies_rev <- anomaly :: t.anomalies_rev;
    t.anomaly_count <- t.anomaly_count + 1;
    t.reason_tally <-
      List.map
        (fun (r, n) -> if r = reason then (r, n + 1) else (r, n))
        t.reason_tally;
    Obs.Registry.Counter.incr (t.alarm_counter reason);
    Some anomaly
  end

let observe_route t ~now ~prefix ~origin ?path communities =
  t.event_count <- t.event_count + 1;
  Obs.Registry.Counter.incr t.events_c;
  let st = state_for t prefix in
  let values = relevant_values communities in
  let taggers = taggers_of values in
  let new_values = Bgp.Community.Set.diff values st.values_seen in
  let new_taggers = Asn.Set.diff taggers st.taggers_seen in
  let known_origin = Asn.Set.mem origin st.origins_seen in
  let own_tags =
    Bgp.Community.Set.filter
      (fun c -> Asn.equal c.Bgp.Community.asn origin)
      values
  in
  let origins = Asn.Set.add origin st.origins_seen in
  let warm = now >= t.warmup_until in
  let found = ref [] in
  let fire ~reason ~evidence =
    match
      fire t ~prefix ~now ~reason ~origin ~before:st.taggers_seen ~evidence
        ~origins
    with
    | Some a -> found := a :: !found
    | None -> ()
  in
  if warm then begin
    if not known_origin then begin
      (* a brand-new origin judged purely on community evidence: it brings
         values or taggers never associated with the prefix — or arrives
         conspicuously bare while the prefix has an established tag
         profile (the hijacker who strips what it cannot forge) *)
      if
        (not (Bgp.Community.Set.is_empty new_values))
        || (not (Asn.Set.is_empty new_taggers))
        || (Bgp.Community.Set.is_empty values && st.had_communities)
      then fire ~reason:Tagger_churn ~evidence:taggers
    end
    else begin
      (* a known origin whose own stamp changed: retagging is rare enough
         in practice that a flip is a signal, while a missing stamp is
         not (scrubbers legitimately erase it) *)
      (match Asn.Map.find_opt origin st.self_tags with
      | Some profile
        when (not (Bgp.Community.Set.is_empty own_tags))
             && not (Bgp.Community.Set.equal own_tags profile) ->
        fire ~reason:Origin_retag ~evidence:(taggers_of own_tags)
      | _ -> ());
      (* an established community carrier suddenly arriving bare *)
      if Bgp.Community.Set.is_empty values && st.had_communities then
        fire ~reason:Scrub_event ~evidence:Asn.Set.empty
    end;
    (* a tag claimed by an AS that never forwarded the route *)
    (match path with
    | None -> ()
    | Some on_path ->
      let off_path =
        Bgp.Community.Set.filter
          (fun c ->
            let a = c.Bgp.Community.asn in
            (not (Asn.Set.mem a on_path))
            && (not (Asn.equal a origin))
            && not (Asn.equal a t.self))
          values
      in
      if not (Bgp.Community.Set.is_empty off_path) then
        fire ~reason:Path_inconsistency ~evidence:(taggers_of off_path))
  end;
  (* absorb the observation — during warmup this is the whole job *)
  st.values_seen <- Bgp.Community.Set.union st.values_seen values;
  st.taggers_seen <- Asn.Set.union st.taggers_seen taggers;
  st.origins_seen <- origins;
  st.had_communities <- st.had_communities || not (Bgp.Community.Set.is_empty values);
  if not (Bgp.Community.Set.is_empty own_tags) then
    st.self_tags <- Asn.Map.add origin own_tags st.self_tags;
  List.rev !found

let observe t ~now ~prefix routes =
  List.concat_map
    (fun route ->
      (* only routes learned from the network are telemetry: a router's
         own originations are untagged by construction and would read as
         spurious scrub events next to their tagged echoes *)
      if Asn.equal route.Bgp.Route.learned_from t.self then []
      else
        observe_route t ~now ~prefix
          ~origin:(Bgp.Route.origin_as ~self:t.self route)
          ~path:(Bgp.As_path.ases route.Bgp.Route.as_path)
          route.Bgp.Route.communities)
    routes

let anomaly_count t = t.anomaly_count
let event_count t = t.event_count
let reason_counts t = t.reason_tally
