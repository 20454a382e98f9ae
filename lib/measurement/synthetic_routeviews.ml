open Net
module Rng = Mutil.Rng
module Day = Mutil.Day

type params = {
  seed : int64;
  universe_size : int;
  initial_long_lived : int;
  final_long_lived : int;
  one_day_churn : int;
  medium_churn : int;
  medium_max_duration : int;
  missing_day_count : int;
  event_1998_size : int;
  event_2001_size : int;
}

(* Calibration: 1290 long-lived + 1135 (1998 event) + 970 (2001 event)
   + 238 one-day churn + 191 medium churn = 3824 distinct MOAS prefixes,
   of which 1135 + 238 = 1373 last one day (35.9%), with 82.7% of the
   one-day cases due to the 1998-04-07 fault — the paper's numbers. *)
let default_params =
  {
    seed = 0x524f555445L (* "ROUTE" *);
    universe_size = 4000;
    initial_long_lived = 650;
    final_long_lived = 1390;
    one_day_churn = 238;
    medium_churn = 91;
    medium_max_duration = 60;
    missing_day_count = 70;
    event_1998_size = 1135;
    event_2001_size = 970;
  }

let smoke_params =
  {
    default_params with
    universe_size = 400;
    initial_long_lived = 65;
    final_long_lived = 139;
    one_day_churn = 24;
    medium_churn = 9;
    event_1998_size = 114;
    event_2001_size = 97;
  }

let fault_as_1998 = Asn.make 8584
let fault_as_2001 = Asn.make 15412

let event_1998 = Day.of_ymd 1998 4 7
let event_2001 = Day.of_ymd 2001 4 6

(* One MOAS episode: the prefix at [index] gains [extra] origins on the
   half-open day range [start_off, start_off + duration). *)
type episode = { index : int; start_off : int; duration : int; extra : Asn.Set.t }

let window = Day.measurement_days

let validate p =
  let moas_total =
    p.initial_long_lived
    + (p.final_long_lived - p.initial_long_lived)
    + p.event_1998_size + p.event_2001_size + p.one_day_churn + p.medium_churn
  in
  if p.final_long_lived < p.initial_long_lived then
    invalid_arg "Synthetic_routeviews: long-lived pool cannot shrink";
  if p.universe_size < moas_total then
    invalid_arg "Synthetic_routeviews: universe too small for the episodes";
  if p.missing_day_count < 0 || p.missing_day_count > window / 2 then
    invalid_arg "Synthetic_routeviews: unreasonable missing-day count"

(* Deterministic prefix universe: distinct /16s and /17s spread over the
   unicast space, which keeps prefixes comparable and collision-free. *)
let universe_prefix i =
  let block = i / 200 and slot = i mod 200 in
  Prefix.make (Ipv4.of_octets (1 + (block mod 200)) slot 0 0) 24
  |> fun p -> Prefix.make (Prefix.network p) (if i mod 3 = 0 then 16 else 24)

let fresh_asn rng used =
  let rec draw () =
    let asn = Asn.make (1 + Rng.int rng 64000) in
    if Hashtbl.mem used asn then draw ()
    else begin
      Hashtbl.add used asn ();
      asn
    end
  in
  draw ()

(* Extra-origin multiplicity per non-fault case.  The fault events always
   involve exactly two origins, so the background mix is tilted so that the
   overall distribution lands on the paper's 96.14% / 2.7% / 1.16% split. *)
let extra_origin_count rng =
  let roll = Rng.float rng 1.0 in
  if roll < 0.914 then 1 else if roll < 0.974 then 2 else 3

let shuffled_indices rng n =
  let a = Array.init n (fun i -> i) in
  Rng.shuffle rng a;
  a

let build_episodes p rng base_origins ~missing =
  let used = Hashtbl.create 4096 in
  Array.iter (fun asn -> Hashtbl.replace used asn ()) base_origins;
  Hashtbl.replace used fault_as_1998 ();
  Hashtbl.replace used fault_as_2001 ();
  let order = shuffled_indices rng p.universe_size in
  let cursor = ref 0 in
  let take n =
    let taken = Array.sub order !cursor n in
    cursor := !cursor + n;
    taken
  in
  let extras_for index =
    let n = extra_origin_count rng in
    let rec build acc k = if k = 0 then acc else build (Asn.Set.add (fresh_asn rng used) acc) (k - 1) in
    ignore index;
    build Asn.Set.empty n
  in
  let episodes = ref [] in
  let add e = episodes := e :: !episodes in
  (* long-lived multi-homing MOAS: active from an activation day to the end
     of the window.  Activations follow a convex schedule (Internet-growth
     shaped: few new multi-homed organisations early, many late), which is
     what reconciles the paper's 1998 median of 683 with the 2001 median of
     1294 *)
  let ramp = p.final_long_lived - p.initial_long_lived in
  let long_idx = take p.final_long_lived in
  Array.iteri
    (fun k index ->
      let start_off =
        if k < p.initial_long_lived then 0
        else
          let j = k - p.initial_long_lived in
          let f = sqrt (float_of_int (j + 1) /. float_of_int (max 1 ramp)) in
          max 1 (int_of_float (f *. float_of_int (window - 1)))
      in
      add { index; start_off; duration = window - start_off; extra = extras_for index })
    long_idx;
  (* the 1998-04-07 fault: AS8584 announces prefixes of other organisations
     for a single day *)
  let ev98_off = Day.diff event_1998 Day.measurement_start in
  Array.iter
    (fun index ->
      add
        {
          index;
          start_off = ev98_off;
          duration = 1;
          extra = Asn.Set.singleton fault_as_1998;
        })
    (take p.event_1998_size);
  (* the 2001-04-06 fault: AS15412 originates thousands of foreign prefixes
     for about two days *)
  let ev01_off = Day.diff event_2001 Day.measurement_start in
  Array.iter
    (fun index ->
      add
        {
          index;
          start_off = ev01_off;
          duration = 2;
          extra = Asn.Set.singleton fault_as_2001;
        })
    (take p.event_2001_size);
  (* background churn; one-day episodes must land on an observed day or
     they would never appear in any dump *)
  let observed_day () =
    let rec draw () =
      let off = Rng.int rng window in
      if missing.(off) then draw () else off
    in
    draw ()
  in
  Array.iter
    (fun index ->
      add { index; start_off = observed_day (); duration = 1; extra = extras_for index })
    (take p.one_day_churn);
  (* medium episodes: geometric durations (mean about a week), matching
     Figure 5's monotone decay beyond the one-day spike *)
  Array.iter
    (fun index ->
      let duration =
        min p.medium_max_duration (2 + Rng.geometric rng 0.18)
      in
      let start_off = Rng.int rng (max 1 (window - duration)) in
      add { index; start_off; duration; extra = extras_for index })
    (take p.medium_churn);
  !episodes

(* Collector outages: two long maintenance gaps plus scattered single
   days, matching the texture of the real archive. *)
let missing_days_of p rng =
  let missing = Array.make window false in
  let mark off = if off >= 0 && off < window then missing.(off) <- true in
  let long_gap_1 = 30 and long_gap_2 = 20 in
  let budget = p.missing_day_count in
  let g1 = min long_gap_1 budget in
  let start1 = 200 in
  for i = start1 to start1 + g1 - 1 do mark i done;
  let g2 = min long_gap_2 (budget - g1) in
  let start2 = 700 in
  for i = start2 to start2 + g2 - 1 do mark i done;
  let scattered = budget - g1 - g2 in
  let placed = ref 0 in
  while !placed < scattered do
    let off = Rng.int rng window in
    (* never lose the two fault events to an outage *)
    let ev98 = Day.diff event_1998 Day.measurement_start in
    let ev01 = Day.diff event_2001 Day.measurement_start in
    if (not missing.(off)) && off <> ev98 && off <> ev01 && off <> ev01 + 1
    then begin
      missing.(off) <- true;
      incr placed
    end
  done;
  missing

let setup p =
  validate p;
  let rng = Rng.create ~seed:p.seed in
  let base_origins =
    let used = Hashtbl.create 4096 in
    Hashtbl.replace used fault_as_1998 ();
    Hashtbl.replace used fault_as_2001 ();
    Array.init p.universe_size (fun _ -> fresh_asn rng used)
  in
  let missing = missing_days_of p (Rng.split_at rng 2) in
  let episodes = build_episodes p (Rng.split_at rng 1) base_origins ~missing in
  (base_origins, episodes, missing)

let observed_days p =
  let _, _, missing = setup p in
  Array.map not missing

type change = { row : int; prefix : Prefix.t; before : Asn.Set.t; after : Asn.Set.t }
type day_delta = { delta_day : Day.t; changes : change list }

(* Pull-based delta generator.  The start/stop queues hold every origin
   change; applying a day's queues marks the touched rows, and on each
   observed day the touched rows whose origin set differs from the one
   last published become that day's changes.  Rows touched on missing
   days stay pending until the next observed day, so an episode that
   opens and closes inside an outage publishes nothing.  Every row starts
   pending with an empty published set, so the first observed day
   publishes the whole table. *)
let delta_seq p =
  let base_origins, episodes, missing = setup p in
  let n = p.universe_size in
  let prefixes = Array.init n universe_prefix in
  (* per-day start and stop queues *)
  let starts = Array.make window [] in
  let stops = Array.make window [] in
  List.iter
    (fun e ->
      if e.start_off < window then begin
        starts.(e.start_off) <- e :: starts.(e.start_off);
        let stop = e.start_off + e.duration in
        if stop < window then stops.(stop) <- e :: stops.(stop)
      end)
    episodes;
  (* current extra origins and last published origin set per row *)
  let extras : Asn.Set.t array = Array.make n Asn.Set.empty in
  let published : Asn.Set.t array = Array.make n Asn.Set.empty in
  let touched = Bytes.make n '\001' in
  let pending = Array.init n Fun.id and n_pending = ref n in
  let touch i =
    if Bytes.get touched i = '\000' then begin
      Bytes.set touched i '\001';
      pending.(!n_pending) <- i;
      incr n_pending
    end
  in
  let publish off =
    let rows = Array.sub pending 0 !n_pending in
    n_pending := 0;
    Array.sort Int.compare rows;
    let changes =
      Array.fold_right
        (fun i acc ->
          Bytes.set touched i '\000';
          let after = Asn.Set.add base_origins.(i) extras.(i) in
          let before = published.(i) in
          if Asn.Set.equal before after then acc
          else begin
            published.(i) <- after;
            { row = i; prefix = prefixes.(i); before; after } :: acc
          end)
        rows []
    in
    { delta_day = Day.add Day.measurement_start off; changes }
  in
  let rec step off () =
    if off >= window then Seq.Nil
    else begin
      List.iter
        (fun e ->
          extras.(e.index) <- Asn.Set.union extras.(e.index) e.extra;
          touch e.index)
        starts.(off);
      List.iter
        (fun e ->
          extras.(e.index) <- Asn.Set.diff extras.(e.index) e.extra;
          touch e.index)
        stops.(off);
      if missing.(off) then step (off + 1) ()
      else Seq.Cons (publish off, step (off + 1))
    end
  in
  step 0
