(* Naive references that the optimised library code is checked against.

   The offline MOAS verdict, written from the paper and not from
   Stream.Monitor: per prefix the current origins and their advertised
   lists in a Map, and conflict episodes as immutable records.  Only the
   event, batch, episode-view and case types are shared with lib/stream.

   - An episode opens when a prefix's origin set grows past one AS and
     closes when it falls back to at most one.
   - At each settle point an open episode whose origins fail the paper's
     list check is flagged, for good.
   - At each day's end every open episode is credited one day, and the
     count of open episodes is the day's Figure 4 value.

   A router's decision, by a full scan over its candidates and written
   from the decision order in Bgp.Decision's interface, not from its
   code: see [router_best] at the end. *)

open Net
module M = Stream.Monitor
module Rp = Stream.Report

type episode = Rp.episode_view

type prefix_state = {
  origins : Asn.Set.t option Asn.Map.t;  (* origin -> advertised list *)
  current : episode option;
  closed : episode list;  (* newest first *)
}

type t = {
  prefixes : prefix_state Prefix.Map.t;
  daily : int list;  (* open episodes at each day's end, newest first *)
}

let empty = { prefixes = Prefix.Map.empty; daily = [] }
let fresh = { origins = Asn.Map.empty; current = None; closed = [] }

(* Section 4: a multi-origin prefix is valid when every origin attaches a
   MOAS list, the lists are all equal, and the list names every current
   origin. *)
let lists_valid origins =
  match Asn.Map.bindings origins with
  | [] | [ _ ] -> true
  | (_, first) :: _ as all ->
    List.for_all
      (fun (origin, list) ->
        match (list, first) with
        | Some l, Some f -> Asn.Set.equal l f && Asn.Set.mem origin l
        | _ -> false)
      all

let keys m = Asn.Map.fold (fun k _ s -> Asn.Set.add k s) m Asn.Set.empty

let step_prefix prefix (p : prefix_state) (ev : M.event) =
  match ev.M.action with
  | M.Announce { origin; moas_list } -> (
    let origins = Asn.Map.add origin moas_list p.origins in
    let n = Asn.Map.cardinal origins in
    match p.current with
    | Some e ->
      let e =
        {
          e with
          Rp.v_max_origins = max e.Rp.v_max_origins n;
          v_origins = Asn.Set.add origin e.Rp.v_origins;
        }
      in
      { p with origins; current = Some e }
    | None when n > 1 ->
      let e =
        {
          Rp.v_prefix = prefix;
          v_seq = List.length p.closed + 1;
          v_started = ev.M.time;
          v_ended = None;
          v_days = 0;
          v_max_origins = n;
          v_origins = keys origins;
          v_clean = true;
        }
      in
      { p with origins; current = Some e }
    | None -> { p with origins })
  | M.Withdraw { origin } -> (
    let origins = Asn.Map.remove origin p.origins in
    match p.current with
    | Some e when Asn.Map.cardinal origins <= 1 ->
      let e = { e with Rp.v_ended = Some ev.M.time } in
      { origins; current = None; closed = e :: p.closed }
    | _ -> { p with origins })

let ingest t (ev : M.event) =
  let prefix = ev.M.prefix in
  let p = Option.value ~default:fresh (Prefix.Map.find_opt prefix t.prefixes) in
  { t with prefixes = Prefix.Map.add prefix (step_prefix prefix p ev) t.prefixes }

let map_open f t =
  let prefixes =
    Prefix.Map.map (fun p -> { p with current = Option.map (f p) p.current }) t.prefixes
  in
  { t with prefixes }

let settle =
  map_open (fun p e -> if lists_valid p.origins then e else { e with Rp.v_clean = false })

let mark_day t =
  let t = map_open (fun _ e -> { e with Rp.v_days = e.Rp.v_days + 1 }) (settle t) in
  let n = Prefix.Map.fold (fun _ p n -> if p.current = None then n else n + 1) t.prefixes 0 in
  { t with daily = n :: t.daily }

(* each batch's events, then its day's end or a settle point *)
let of_batches batches =
  List.fold_left
    (fun t (b : Stream.Source.batch) ->
      let t = Array.fold_left ingest t b.Stream.Source.events in
      if b.Stream.Source.day = None then settle t else mark_day t)
    empty batches

let episodes t =
  Prefix.Map.fold
    (fun _ p acc -> List.rev_append p.closed (Option.to_list p.current @ acc))
    t.prefixes []
  |> List.sort (fun (a : episode) (b : episode) ->
         match Prefix.compare a.Rp.v_prefix b.Rp.v_prefix with
         | 0 -> compare (a.Rp.v_started, a.Rp.v_seq) (b.Rp.v_started, b.Rp.v_seq)
         | c -> c)

let daily_open_counts t = List.rev t.daily

(* Section 3's cases: a prefix's days, largest origin set and origins,
   over all its episodes; a prefix never in conflict at a day's end is
   not a case *)
let cases t =
  List.filter_map
    (fun (prefix, p) ->
      let eps = Option.to_list p.current @ p.closed in
      let days = List.fold_left (fun n e -> n + e.Rp.v_days) 0 eps in
      if days = 0 then None
      else
        Some
          {
            Rp.c_prefix = prefix;
            c_days = days;
            c_max_origins = List.fold_left (fun n e -> max n e.Rp.v_max_origins) 0 eps;
            c_origins =
              List.fold_left (fun s e -> Asn.Set.union s e.Rp.v_origins) Asn.Set.empty eps;
          })
    (Prefix.Map.bindings t.prefixes)

(* ---- a router's decision, by a full scan ---- *)

(* the attributes in decision order, smallest most preferred: higher
   LOCAL_PREF, shorter AS path, lower ORIGIN *)
let attrs (r : Bgp.Route.t) =
  ( -r.Bgp.Route.local_pref,
    Bgp.As_path.length r.Bgp.Route.as_path,
    match r.Bgp.Route.origin with Bgp.Route.Igp -> 0 | Egp -> 1 | Incomplete -> 2 )

(* The most preferred candidate (attributes, then the lowest peer AS),
   under the oldest-route rule: an incumbent still among the candidates
   stays unless that candidate beats it strictly on attributes. *)
let decide ~incumbent candidates =
  let key (r : Bgp.Route.t) = (attrs r, r.Bgp.Route.learned_from) in
  match List.stable_sort (fun a b -> compare (key a) (key b)) candidates with
  | [] -> None
  | best :: _ -> (
    match incumbent with
    | Some current
      when List.exists (Bgp.Route.equal current) candidates
           && not (attrs best < attrs current) ->
      incumbent
    | Some _ | None -> Some best)

(* What a router's best route for [prefix] must be after a decision at
   [now]: its originated route and its Adj-RIB-In entries, the ones
   [admitted] lets through (damping), then the validator's verdict on
   them, then [decide] against the previous best. *)
let router_best ~validate ~admitted ~originated ~incumbent ~now rib prefix =
  List.filter admitted (Option.to_list originated @ Bgp.Rib.candidates (Bgp.Rib.entry rib prefix))
  |> validate ~now ~prefix
  |> decide ~incumbent
