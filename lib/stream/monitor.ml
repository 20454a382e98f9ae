open Net
module Registry = Obs.Registry

(* ------------------------------------------------------------------ *)
(* Events *)

type action =
  | Announce of { origin : Asn.t; moas_list : Asn.Set.t option }
  | Withdraw of { origin : Asn.t }

type event = { time : int; peer : Asn.t; prefix : Prefix.t; action : action }

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  window : int;
  short_max_days : int;
  medium_max_days : int;
  day_seconds : int;
}

let default_config =
  { window = 86_400; short_max_days = 1; medium_max_days = 60; day_seconds = 86_400 }

let validate_config c =
  if c.window <= 0 then invalid_arg "Stream.Monitor: window must be positive";
  if c.day_seconds <= 0 then invalid_arg "Stream.Monitor: day_seconds must be positive";
  if c.short_max_days < 1 || c.medium_max_days <= c.short_max_days then
    invalid_arg "Stream.Monitor: need 1 <= short_max_days < medium_max_days"

(* ------------------------------------------------------------------ *)
(* Duration buckets (paper Section 3) *)

type bucket = Short | Medium | Long

let bucket_of_days cfg days =
  let days = max 1 days in
  if days <= cfg.short_max_days then Short
  else if days <= cfg.medium_max_days then Medium
  else Long

let bucket_to_string = function
  | Short -> "short"
  | Medium -> "medium"
  | Long -> "long"

let bucket_of_string s =
  match String.lowercase_ascii s with
  | "short" -> Ok Short
  | "medium" -> Ok Medium
  | "long" -> Ok Long
  | other ->
    Error
      (Printf.sprintf "unknown bucket %S (expected short, medium or long)"
         other)

let bucket_label = function
  | Short -> "short-lived"
  | Medium -> "medium-lived"
  | Long -> "long-lived"

let bucket_rank = function Short -> 0 | Medium -> 1 | Long -> 2
let compare_bucket a b = Int.compare (bucket_rank a) (bucket_rank b)

(* ------------------------------------------------------------------ *)
(* Canonical (snapshot) representation *)

type origin_entry = { origin : Asn.t; adv_list : Asn.Set.t option }

type open_episode = {
  o_seq : int;
  o_started : int;
  o_days : int;
  o_max_origins : int;
  o_origins_ever : Asn.Set.t;
  o_clean : bool;
}

type episode = {
  e_prefix : Prefix.t;
  e_seq : int;
  e_started : int;
  e_ended : int;
  e_days : int;
  e_max_origins : int;
  e_origins_ever : Asn.Set.t;
  e_clean : bool;
}

type prefix_state = {
  p_prefix : Prefix.t;
  p_origins : origin_entry list;
  p_open : open_episode option;
  p_closed_count : int;
}

type window_counts = {
  w_updates : int;
  w_opened : int;
  w_closed : int;
  w_alerts : int;
}

type counters = {
  c_updates : int;
  c_announces : int;
  c_withdraws : int;
  c_opened : int;
  c_closed : int;
  c_alerts : int;
  c_days : int;
}

let zero_counters =
  {
    c_updates = 0;
    c_announces = 0;
    c_withdraws = 0;
    c_opened = 0;
    c_closed = 0;
    c_alerts = 0;
    c_days = 0;
  }

type snapshot = {
  s_config : config;
  s_counters : counters;
  s_last_time : int;
  s_prefixes : prefix_state list;
  s_closed : episode list;
  s_windows : (int * window_counts) list;
}

let empty_snapshot config =
  validate_config config;
  {
    s_config = config;
    s_counters = zero_counters;
    s_last_time = 0;
    s_prefixes = [];
    s_closed = [];
    s_windows = [];
  }

let compare_episode a b =
  let c = Prefix.compare a.e_prefix b.e_prefix in
  if c <> 0 then c
  else
    let c = Int.compare a.e_started b.e_started in
    if c <> 0 then c else Int.compare a.e_seq b.e_seq

(* Counters of disjoint shards add; [c_days] is the exception because a
   day mark is delivered to every shard, so each shard already holds the
   full count and the merge takes the maximum. *)
let merge_counters a b =
  {
    c_updates = a.c_updates + b.c_updates;
    c_announces = a.c_announces + b.c_announces;
    c_withdraws = a.c_withdraws + b.c_withdraws;
    c_opened = a.c_opened + b.c_opened;
    c_closed = a.c_closed + b.c_closed;
    c_alerts = a.c_alerts + b.c_alerts;
    c_days = max a.c_days b.c_days;
  }

let merge_window_counts a b =
  {
    w_updates = a.w_updates + b.w_updates;
    w_opened = a.w_opened + b.w_opened;
    w_closed = a.w_closed + b.w_closed;
    w_alerts = a.w_alerts + b.w_alerts;
  }

module Int_map = Map.Make (Int)

let merge_snapshots = function
  | [] -> invalid_arg "Stream.Monitor.merge_snapshots: empty list"
  | first :: _ as snaps ->
    let counters =
      List.fold_left (fun acc s -> merge_counters acc s.s_counters)
        zero_counters snaps
    in
    let last_time =
      List.fold_left (fun acc s -> max acc s.s_last_time) 0 snaps
    in
    let prefixes =
      List.concat_map (fun s -> s.s_prefixes) snaps
      |> List.sort (fun a b -> Prefix.compare a.p_prefix b.p_prefix)
    in
    let closed =
      List.concat_map (fun s -> s.s_closed) snaps |> List.sort compare_episode
    in
    let windows =
      List.fold_left
        (fun m s ->
          List.fold_left
            (fun m (idx, w) ->
              Int_map.update idx
                (function
                  | None -> Some w
                  | Some prev -> Some (merge_window_counts prev w))
                m)
            m s.s_windows)
        Int_map.empty snaps
    in
    {
      s_config = first.s_config;
      s_counters = counters;
      s_last_time = last_time;
      s_prefixes = prefixes;
      s_closed = closed;
      s_windows = Int_map.bindings windows;
    }

(* ------------------------------------------------------------------ *)
(* Episode alerts *)

type alert_kind = Opened | Flagged | Closed

type alert = {
  al_time : int;
  al_prefix : Prefix.t;
  al_origins : Asn.Set.t;
  al_kind : alert_kind;
}

let kind_rank = function Opened -> 0 | Flagged -> 1 | Closed -> 2

let compare_alert a b =
  let c = Int.compare a.al_time b.al_time in
  if c <> 0 then c
  else
    let c = Prefix.compare a.al_prefix b.al_prefix in
    if c <> 0 then c
    else
      let c = Int.compare (kind_rank a.al_kind) (kind_rank b.al_kind) in
      if c <> 0 then c else Asn.Set.compare a.al_origins b.al_origins

(* ------------------------------------------------------------------ *)
(* Live monitor state *)

type open_state = {
  os_seq : int;
  os_started : int;
  mutable os_days : int;
  mutable os_max_origins : int;
  mutable os_origins_ever : Asn.Set.t;
  mutable os_clean : bool;
}

(* Tiny per-prefix origin table: parallel arrays kept sorted by Asn so
   the snapshot's binding order matches the old [Asn.Map] exactly.  MOAS
   origin sets are a handful of ASes, so a linear scan beats a balanced
   tree and — the point of the exercise — a repeat announcement mutates
   the slot in place instead of allocating a fresh tree path. *)
type otab = {
  mutable o_asn : Asn.t array; (* sorted ascending; [o_n] live entries *)
  mutable o_adv : Asn.Set.t option array;
  mutable o_n : int;
}

let otab_create () = { o_asn = [||]; o_adv = [||]; o_n = 0 }

(* index of [origin] when present, otherwise [-(insertion point + 1)] *)
let otab_search ot origin =
  let n = ot.o_n in
  let rec go i =
    if i >= n then -(i + 1)
    else
      let c = Asn.compare ot.o_asn.(i) origin in
      if c < 0 then go (i + 1) else if c = 0 then i else -(i + 1)
  in
  go 0

let otab_insert ot pos origin adv =
  let n = ot.o_n in
  if n = Array.length ot.o_asn then begin
    let cap = max 4 (2 * n) in
    let asn = Array.make cap origin and advs = Array.make cap None in
    Array.blit ot.o_asn 0 asn 0 n;
    Array.blit ot.o_adv 0 advs 0 n;
    ot.o_asn <- asn;
    ot.o_adv <- advs
  end;
  for i = n downto pos + 1 do
    ot.o_asn.(i) <- ot.o_asn.(i - 1);
    ot.o_adv.(i) <- ot.o_adv.(i - 1)
  done;
  ot.o_asn.(pos) <- origin;
  ot.o_adv.(pos) <- adv;
  ot.o_n <- n + 1

let otab_remove ot pos =
  let n = ot.o_n in
  for i = pos to n - 2 do
    ot.o_asn.(i) <- ot.o_asn.(i + 1);
    ot.o_adv.(i) <- ot.o_adv.(i + 1)
  done;
  ot.o_adv.(n - 1) <- None;
  (* don't pin the dropped Set *)
  ot.o_n <- n - 1

type pstate = {
  ot : otab;
  mutable open_ep : open_state option;
  mutable closed_count : int;
}

type wstate = {
  mutable wu : int;
  mutable wo : int;
  mutable wc : int;
  mutable wa : int;
}

(* Prefixes are interned to dense int ids ({!Net.Intern}) the first time
   they announce; all per-prefix live state lives in an array indexed by
   that id and the open/dirty sets are int-keyed.  The hot ingest loop
   therefore touches only unboxed int keys — no structural hashing of
   prefix records, no option boxing on the hit path.  Ids are an
   in-memory handle: a monitor rebuilt from a snapshot re-interns in
   snapshot order and behaves identically (the snapshot itself is keyed
   by prefix, never by id). *)
type t = {
  cfg : config;
  interner : Prefix.t Intern.t;
  mutable states : pstate option array; (* dense prefix id -> live state *)
  (* open and dirty sets as flag-bytes + id stacks: ids are dense, so
     membership is a byte load and insertion a byte store + push — no
     hashing, no allocation on the steady path.  The open stack may hold
     stale ids of since-closed episodes; [mark_day] sweeps them out and
     [open_live] tracks the exact live count. *)
  mutable open_flag : Bytes.t;
  mutable open_ids : int array;
  mutable open_n : int;
  mutable open_live : int;
  mutable dirty_flag : Bytes.t;
  mutable dirty_ids : int array;
  mutable dirty_n : int;
  mutable closed : episode list;  (* reverse completion order *)
  (* the latest batch's alerts, as parallel arrays so raising one
     allocates nothing once they have grown: kind rank, time and prefix
     id in [pend_meta] (three ints per alert), and the episode itself in
     [pend_ep] — held rather than its origin set copied, so an origin
     that joins later in the same batch still shows up in the alert.  A
     settle point sets [pend_done]; the next ingest or settle starts a
     new batch by emptying the arrays, so a monitor whose alerts nobody
     reads holds one batch's worth, never the whole stream's. *)
  mutable pend_meta : int array;
  mutable pend_ep : open_state array;
  mutable pend_n : int;
  mutable pend_done : bool;
  windows : (int, wstate) Hashtbl.t;
  mutable cur_widx : int; (* cached window slot: feeds are time-monotone *)
  mutable cur_w : wstate;
  mutable updates : int;
  mutable announces : int;
  mutable withdraws : int;
  mutable opened : int;
  mutable closed_n : int;
  mutable alerts : int;
  mutable days : int;
  mutable last_time : int;
  m_updates : Registry.Counter.t;
  m_announces : Registry.Counter.t;
  m_withdraws : Registry.Counter.t;
  m_opened : Registry.Counter.t;
  m_closed : Registry.Counter.t;
  m_alerts : Registry.Counter.t;
}

let create ?(metrics = Registry.noop) cfg =
  validate_config cfg;
  {
    cfg;
    interner = Intern.prefixes ~size:1024 ();
    states = [||];
    open_flag = Bytes.empty;
    open_ids = [||];
    open_n = 0;
    open_live = 0;
    dirty_flag = Bytes.empty;
    dirty_ids = [||];
    dirty_n = 0;
    closed = [];
    pend_meta = [||];
    pend_ep = [||];
    pend_n = 0;
    pend_done = false;
    windows = Hashtbl.create 64;
    cur_widx = min_int;
    cur_w = { wu = 0; wo = 0; wc = 0; wa = 0 };
    updates = 0;
    announces = 0;
    withdraws = 0;
    opened = 0;
    closed_n = 0;
    alerts = 0;
    days = 0;
    last_time = 0;
    m_updates = Registry.counter metrics "stream_updates_total";
    m_announces = Registry.counter metrics "stream_announces_total";
    m_withdraws = Registry.counter metrics "stream_withdraws_total";
    m_opened = Registry.counter metrics "stream_episodes_opened_total";
    m_closed = Registry.counter metrics "stream_episodes_closed_total";
    m_alerts = Registry.counter metrics "stream_alerts_total";
  }

let open_count t = t.open_live
let update_count t = t.updates
let day_count t = t.days

let wslot t time =
  let idx = time / t.cfg.window in
  if idx = t.cur_widx then t.cur_w
  else begin
    let w =
      match Hashtbl.find t.windows idx with
      | w -> w
      | exception Not_found ->
        let w = { wu = 0; wo = 0; wc = 0; wa = 0 } in
        Hashtbl.add t.windows idx w;
        w
    in
    t.cur_widx <- idx;
    t.cur_w <- w;
    w
  end

let grow_flags b id =
  if Bytes.length b > id then b
  else begin
    let cap = max 1024 (2 * Bytes.length b) in
    let nb = Bytes.make (max cap (id + 1)) '\000' in
    Bytes.blit b 0 nb 0 (Bytes.length b);
    nb
  end

let grow_ids a n =
  if n < Array.length a then a
  else begin
    let cap = max 1024 (2 * n) in
    let na = Array.make cap 0 in
    Array.blit a 0 na 0 n;
    na
  end

let mark_dirty t id =
  t.dirty_flag <- grow_flags t.dirty_flag id;
  if Bytes.get t.dirty_flag id = '\000' then begin
    Bytes.set t.dirty_flag id '\001';
    t.dirty_ids <- grow_ids t.dirty_ids t.dirty_n;
    t.dirty_ids.(t.dirty_n) <- id;
    t.dirty_n <- t.dirty_n + 1
  end

let mark_open t id =
  t.open_live <- t.open_live + 1;
  t.open_flag <- grow_flags t.open_flag id;
  if Bytes.get t.open_flag id = '\000' then begin
    Bytes.set t.open_flag id '\001';
    t.open_ids <- grow_ids t.open_ids t.open_n;
    t.open_ids.(t.open_n) <- id;
    t.open_n <- t.open_n + 1
  end

let pstate_of t id =
  if id >= Array.length t.states then begin
    let cap = max 1024 (2 * Array.length t.states) in
    let grown = Array.make (max cap (id + 1)) None in
    Array.blit t.states 0 grown 0 (Array.length t.states);
    t.states <- grown
  end;
  match t.states.(id) with
  | Some ps -> ps
  | None ->
    let ps = { ot = otab_create (); open_ep = None; closed_count = 0 } in
    t.states.(id) <- Some ps;
    ps

(* fills the unused slots of [pend_ep]; never mutated *)
let no_episode =
  {
    os_seq = 0;
    os_started = 0;
    os_days = 0;
    os_max_origins = 0;
    os_origins_ever = Asn.Set.empty;
    os_clean = true;
  }

let raise_alert t kind ~time id os =
  let n = t.pend_n in
  if n = Array.length t.pend_ep then begin
    let cap = max 64 (2 * n) in
    let meta = Array.make (3 * cap) 0 and eps = Array.make cap no_episode in
    Array.blit t.pend_meta 0 meta 0 (3 * n);
    Array.blit t.pend_ep 0 eps 0 n;
    t.pend_meta <- meta;
    t.pend_ep <- eps
  end;
  t.pend_meta.(3 * n) <- kind_rank kind;
  t.pend_meta.((3 * n) + 1) <- time;
  t.pend_meta.((3 * n) + 2) <- id;
  t.pend_ep.(n) <- os;
  t.pend_n <- n + 1

let start_batch t =
  Array.fill t.pend_ep 0 t.pend_n no_episode;
  t.pend_n <- 0;
  t.pend_done <- false

let close_episode t prefix id ps os ~time =
  raise_alert t Closed ~time id os;
  ps.open_ep <- None;
  ps.closed_count <- ps.closed_count + 1;
  t.open_live <- t.open_live - 1;
  t.closed <-
    {
      e_prefix = prefix;
      e_seq = os.os_seq;
      e_started = os.os_started;
      e_ended = time;
      e_days = os.os_days;
      e_max_origins = os.os_max_origins;
      e_origins_ever = os.os_origins_ever;
      e_clean = os.os_clean;
    }
    :: t.closed;
  t.closed_n <- t.closed_n + 1;
  Registry.Counter.incr t.m_closed;
  let w = wslot t time in
  w.wc <- w.wc + 1

let ingest t ev =
  if t.pend_done then start_batch t;
  t.updates <- t.updates + 1;
  Registry.Counter.incr t.m_updates;
  if ev.time > t.last_time then t.last_time <- ev.time;
  let w = wslot t ev.time in
  w.wu <- w.wu + 1;
  match ev.action with
  | Announce { origin; moas_list } ->
    t.announces <- t.announces + 1;
    Registry.Counter.incr t.m_announces;
    let id = Intern.id t.interner ev.prefix in
    let ps = pstate_of t id in
    let ot = ps.ot in
    (match otab_search ot origin with
    | i when i >= 0 -> ot.o_adv.(i) <- moas_list
    | neg -> otab_insert ot (-neg - 1) origin moas_list);
    let card = ot.o_n in
    (match ps.open_ep with
    | Some os ->
      if card > os.os_max_origins then os.os_max_origins <- card;
      os.os_origins_ever <- Asn.Set.add origin os.os_origins_ever;
      mark_dirty t id
    | None ->
      if card > 1 then begin
        let origins_ever = ref Asn.Set.empty in
        for i = 0 to ot.o_n - 1 do
          origins_ever := Asn.Set.add ot.o_asn.(i) !origins_ever
        done;
        let os =
          {
            os_seq = ps.closed_count + 1;
            os_started = ev.time;
            os_days = 0;
            os_max_origins = card;
            os_origins_ever = !origins_ever;
            os_clean = true;
          }
        in
        ps.open_ep <- Some os;
        raise_alert t Opened ~time:ev.time id os;
        mark_open t id;
        mark_dirty t id;
        t.opened <- t.opened + 1;
        Registry.Counter.incr t.m_opened;
        w.wo <- w.wo + 1
      end)
  | Withdraw { origin } -> (
    t.withdraws <- t.withdraws + 1;
    Registry.Counter.incr t.m_withdraws;
    (* [find] never interns: a withdraw for a prefix that never
       announced stays a no-op without growing the table *)
    let id = Intern.find t.interner ev.prefix in
    if id >= 0 then
      match t.states.(id) with
      | None -> ()
      | Some ps ->
        let ot = ps.ot in
        let i = otab_search ot origin in
        if i >= 0 then begin
          otab_remove ot i;
          (match ps.open_ep with
          | Some os when ot.o_n <= 1 ->
            close_episode t ev.prefix id ps os ~time:ev.time
          | _ -> ());
          if ot.o_n = 0 && ps.open_ep = None && ps.closed_count = 0 then
            t.states.(id) <- None
        end)

(* The paper's consistency criterion, evaluated over the settled state of
   a conflicted prefix: every current origin must advertise a MOAS list,
   all lists must agree, and the agreed list must contain every current
   origin.  A conflict that fails the check is an alarm. *)
let origins_validated origins =
  let lists = Asn.Map.fold (fun _ l acc -> l :: acc) origins [] in
  match lists with
  | [] | [ _ ] -> true
  | first :: rest -> (
    match first with
    | None -> false
    | Some list ->
      List.for_all
        (function None -> false | Some l -> Moas.Moas_list.consistent l list)
        rest
      && Asn.Map.for_all (fun o _ -> Asn.Set.mem o list) origins)

(* Same predicate evaluated directly on the live origin table, so
   [settle] never materialises a map.  Mirrors [origins_validated]: the
   reference list is the binding of the largest origin (the head of the
   old fold's accumulator). *)
let otab_validated ot =
  let n = ot.o_n in
  if n <= 1 then true
  else
    match ot.o_adv.(n - 1) with
    | None -> false
    | Some list ->
      let ok = ref true in
      for i = 0 to n - 2 do
        match ot.o_adv.(i) with
        | None -> ok := false
        | Some l -> if not (Moas.Moas_list.consistent l list) then ok := false
      done;
      for i = 0 to n - 1 do
        if not (Asn.Set.mem ot.o_asn.(i) list) then ok := false
      done;
      !ok

let settle t ~time =
  if t.pend_done then start_batch t;
  if t.dirty_n > 0 then begin
    for k = 0 to t.dirty_n - 1 do
      let id = t.dirty_ids.(k) in
      Bytes.set t.dirty_flag id '\000';
      match t.states.(id) with
      | Some ({ open_ep = Some os; _ } as ps) when os.os_clean ->
        if not (otab_validated ps.ot) then begin
          os.os_clean <- false;
          raise_alert t Flagged ~time:t.last_time id os;
          t.alerts <- t.alerts + 1;
          Registry.Counter.incr t.m_alerts;
          let w = wslot t time in
          w.wa <- w.wa + 1
        end
      | _ -> ()
    done;
    t.dirty_n <- 0
  end;
  t.pend_done <- true

let advance_clock t ~time = if time > t.last_time then t.last_time <- time

let mark_day t ~time =
  (* the day mark moves the clock first, so an episode flagged at this
     settle point is stamped with the end of the day *)
  advance_clock t ~time;
  settle t ~time;
  t.days <- t.days + 1;
  (* sweep the open stack: bump live episodes, compact out entries whose
     episode closed and never reopened *)
  let kept = ref 0 in
  for k = 0 to t.open_n - 1 do
    let id = t.open_ids.(k) in
    match t.states.(id) with
    | Some { open_ep = Some os; _ } ->
      os.os_days <- os.os_days + 1;
      t.open_ids.(!kept) <- id;
      incr kept
    | _ -> Bytes.set t.open_flag id '\000'
  done;
  t.open_n <- !kept

let batch_alerts t =
  let alerts = ref [] and m = t.pend_meta in
  for i = t.pend_n - 1 downto 0 do
    alerts :=
      {
        al_time = m.((3 * i) + 1);
        al_prefix = Intern.of_id t.interner m.((3 * i) + 2);
        al_origins = t.pend_ep.(i).os_origins_ever;
        al_kind = (match m.(3 * i) with 0 -> Opened | 1 -> Flagged | _ -> Closed);
      }
      :: !alerts
  done;
  List.sort compare_alert !alerts

(* ------------------------------------------------------------------ *)
(* Snapshot / restore *)

let counters t =
  {
    c_updates = t.updates;
    c_announces = t.announces;
    c_withdraws = t.withdraws;
    c_opened = t.opened;
    c_closed = t.closed_n;
    c_alerts = t.alerts;
    c_days = t.days;
  }

(* Permutation that sorts [keys] ascending, via LSD radix sort: four
   10-bit counting passes cover the 38-bit packed prefix key space.
   Keys are injective and order-compatible with [Prefix.compare] (see
   [Prefix.to_key]), and each live prefix appears once, so applying the
   permutation reproduces the comparator sort exactly — without the
   ~n log n closure calls the list sort pays on every snapshot. *)
let radix_perm keys =
  let n = Array.length keys in
  let perm = Array.init n Fun.id in
  let tmp = Array.make (max n 1) 0 in
  let counts = Array.make 1024 0 in
  let src = ref perm and dst = ref tmp in
  for pass = 0 to 3 do
    let shift = 10 * pass in
    Array.fill counts 0 1024 0;
    let s = !src in
    for i = 0 to n - 1 do
      let d = (keys.(s.(i)) lsr shift) land 1023 in
      counts.(d) <- counts.(d) + 1
    done;
    let off = ref 0 in
    for d = 0 to 1023 do
      let c = counts.(d) in
      counts.(d) <- !off;
      off := !off + c
    done;
    let t = !dst in
    for i = 0 to n - 1 do
      let idx = s.(i) in
      let d = (keys.(idx) lsr shift) land 1023 in
      t.(counts.(d)) <- idx;
      counts.(d) <- counts.(d) + 1
    done;
    src := t;
    dst := s
  done;
  (* four passes: the final result landed back in [perm] *)
  !src

let snapshot t =
  let prefixes = ref [] in
  for id = min (Intern.count t.interner) (Array.length t.states) - 1 downto 0 do
    match t.states.(id) with
    | None -> ()
    | Some ps ->
      let p_origins =
        (* ascending Asn order: identical to the old [Asn.Map.bindings] *)
        let ot = ps.ot in
        let rec build i acc =
          if i < 0 then acc
          else
            build (i - 1)
              ({ origin = ot.o_asn.(i); adv_list = ot.o_adv.(i) } :: acc)
        in
        build (ot.o_n - 1) []
      in
      let p_open =
        Option.map
          (fun os ->
            {
              o_seq = os.os_seq;
              o_started = os.os_started;
              o_days = os.os_days;
              o_max_origins = os.os_max_origins;
              o_origins_ever = os.os_origins_ever;
              o_clean = os.os_clean;
            })
          ps.open_ep
      in
      prefixes :=
        {
          p_prefix = Intern.of_id t.interner id;
          p_origins;
          p_open;
          p_closed_count = ps.closed_count;
        }
        :: !prefixes
  done;
  (* ids reflect first-announce order; the snapshot stays canonical by
     sorting on the prefix key, exactly as the old comparator sort did *)
  let prefixes =
    let recs = Array.of_list !prefixes in
    let keys = Array.map (fun p -> Prefix.to_key p.p_prefix) recs in
    let perm = radix_perm keys in
    let rec build i acc =
      if i < 0 then acc else build (i - 1) (recs.(perm.(i)) :: acc)
    in
    build (Array.length recs - 1) []
  in
  let windows =
    Hashtbl.fold
      (fun idx w acc ->
        (idx, { w_updates = w.wu; w_opened = w.wo; w_closed = w.wc; w_alerts = w.wa })
        :: acc)
      t.windows []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    s_config = t.cfg;
    s_counters = counters t;
    s_last_time = t.last_time;
    s_prefixes = prefixes;
    s_closed = List.sort compare_episode t.closed;
    s_windows = windows;
  }

let restore ?metrics snap =
  let t = create ?metrics snap.s_config in
  List.iter
    (fun p ->
      let open_ep =
        Option.map
          (fun o ->
            {
              os_seq = o.o_seq;
              os_started = o.o_started;
              os_days = o.o_days;
              os_max_origins = o.o_max_origins;
              os_origins_ever = o.o_origins_ever;
              os_clean = o.o_clean;
            })
          p.p_open
      in
      let id = Intern.id t.interner p.p_prefix in
      let ps0 = pstate_of t id in
      (* last binding wins on duplicate origins, as [Asn.Map.add] did *)
      List.iter
        (fun e ->
          match otab_search ps0.ot e.origin with
          | i when i >= 0 -> ps0.ot.o_adv.(i) <- e.adv_list
          | neg -> otab_insert ps0.ot (-neg - 1) e.origin e.adv_list)
        p.p_origins;
      ps0.open_ep <- open_ep;
      ps0.closed_count <- p.p_closed_count;
      if open_ep <> None then mark_open t id)
    snap.s_prefixes;
  t.closed <- List.rev snap.s_closed;
  List.iter
    (fun (idx, w) ->
      Hashtbl.replace t.windows idx
        { wu = w.w_updates; wo = w.w_opened; wc = w.w_closed; wa = w.w_alerts })
    snap.s_windows;
  let c = snap.s_counters in
  t.updates <- c.c_updates;
  t.announces <- c.c_announces;
  t.withdraws <- c.c_withdraws;
  t.opened <- c.c_opened;
  t.closed_n <- c.c_closed;
  t.alerts <- c.c_alerts;
  t.days <- c.c_days;
  t.last_time <- snap.s_last_time;
  (* surface the restored history on the registry, so metrics after a
     restart line up with an uninterrupted run *)
  Registry.Counter.add t.m_updates c.c_updates;
  Registry.Counter.add t.m_announces c.c_announces;
  Registry.Counter.add t.m_withdraws c.c_withdraws;
  Registry.Counter.add t.m_opened c.c_opened;
  Registry.Counter.add t.m_closed c.c_closed;
  Registry.Counter.add t.m_alerts c.c_alerts;
  t
