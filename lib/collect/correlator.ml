open Net
module Report = Stream.Report

type entry = {
  x_prefix : Prefix.t;
  x_seq : int;
  x_started : int;
  x_ended : int option;
  x_days : int;
  x_max_origins : int;
  x_origins : Asn.Set.t;
  x_clean : bool;
  x_seen_by : string list;
  x_first_detect : int option;
  x_last_detect : int option;
}

type t = { c_vantages : string list; c_entries : entry list }

let visibility e = List.length e.x_seen_by

let overlaps ~started ~ended (v : Report.episode_view) =
  (* open intervals extend to the end of time *)
  let hi = Option.value ended ~default:max_int in
  let v_hi = Option.value v.Report.v_ended ~default:max_int in
  v.Report.v_started <= hi && started <= v_hi

(* Each vantage's episodes are indexed by prefix once, so a merged
   episode only looks at its own prefix's views: O(merged x vantages)
   lookups instead of a scan of every vantage's whole episode list. *)
let index_by_prefix eps =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (v : Report.episode_view) ->
      let key = Prefix.to_key v.Report.v_prefix in
      Hashtbl.replace tbl key
        (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[]))
    eps;
  tbl

let correlate ~vantages ~merged =
  let vantages =
    List.sort (fun (a, _) (b, _) -> String.compare a b) vantages
  in
  let views =
    List.map (fun (name, snap) -> (name, index_by_prefix (Report.episodes snap))) vantages
  in
  let entries =
    List.map
      (fun (m : Report.episode_view) ->
        let key = Prefix.to_key m.Report.v_prefix in
        let sightings =
          List.filter_map
            (fun (name, index) ->
              List.fold_left
                (fun acc (v : Report.episode_view) ->
                  if overlaps ~started:m.Report.v_started ~ended:m.Report.v_ended v
                  then
                    match acc with
                    | Some (_, first) when first <= v.Report.v_started -> acc
                    | _ -> Some (name, v.Report.v_started)
                  else acc)
                None
                (Option.value (Hashtbl.find_opt index key) ~default:[]))
            views
        in
        let detects = List.map snd sightings in
        {
          x_prefix = m.Report.v_prefix;
          x_seq = m.Report.v_seq;
          x_started = m.Report.v_started;
          x_ended = m.Report.v_ended;
          x_days = m.Report.v_days;
          x_max_origins = m.Report.v_max_origins;
          x_origins = m.Report.v_origins;
          x_clean = m.Report.v_clean;
          x_seen_by = List.map fst sightings;
          x_first_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left min max_int detects));
          x_last_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left max min_int detects));
        })
      (Report.episodes merged)
  in
  { c_vantages = List.map fst vantages; c_entries = entries }

let of_result (r : Mesh.result) =
  correlate ~vantages:r.Mesh.r_per_vantage ~merged:r.Mesh.r_merged

(* ------------------------------------------------------------------ *)
(* Binary codec for one entry, shared by the MOASSTOR store format and
   the MOASSERV wire protocol (Net.Codec discipline). *)

let write_entry buf e =
  Codec.put_prefix buf e.x_prefix;
  Codec.put_i63 buf e.x_seq;
  Codec.put_i63 buf e.x_started;
  Codec.put_option buf Codec.put_i63 e.x_ended;
  Codec.put_i63 buf e.x_days;
  Codec.put_u32 buf e.x_max_origins;
  Codec.put_asn_set buf e.x_origins;
  Codec.put_bool buf e.x_clean;
  Codec.put_list buf Codec.put_string e.x_seen_by;
  Codec.put_option buf Codec.put_i63 e.x_first_detect;
  Codec.put_option buf Codec.put_i63 e.x_last_detect

(* octets of [write_entry]'s output, field by field *)
let entry_size e =
  let opt = function None -> 1 | Some _ -> 9 in
  let seen = List.fold_left (fun n v -> n + 2 + String.length v) 4 e.x_seen_by in
  5 + 8 + 8 + opt e.x_ended + 8 + 4
  + (4 + (2 * Asn.Set.cardinal e.x_origins))
  + 1 + seen + opt e.x_first_detect + opt e.x_last_detect

(* The generic reader, one Codec reader per field.  The lean reader
   below falls back to it when the input ends inside an entry, so such an
   entry fails at the octet and with the message it always did. *)
let read_entry_generic c =
  let x_prefix = Codec.take_prefix c in
  let x_seq = Codec.take_i63 c in
  let x_started = Codec.take_i63 c in
  let x_ended = Codec.take_option c Codec.take_i63 in
  let x_days = Codec.take_i63 c in
  let x_max_origins = Codec.take_u32 c in
  let x_origins = Codec.take_asn_set c in
  let x_clean = Codec.take_bool c in
  let x_seen_by = Codec.take_list c Codec.take_string in
  let x_first_detect = Codec.take_option c Codec.take_i63 in
  let x_last_detect = Codec.take_option c Codec.take_i63 in
  {
    x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins;
    x_origins;
    x_clean;
    x_seen_by;
    x_first_detect;
    x_last_detect;
  }

(* The lean reader.  A reply or a store file repeats a handful of vantage
   names and name lists thousands of times, so a long decode shares them
   through two bounded tables (Codec.share): a repeated list costs one
   hash and one comparison, and no allocation.  A single origin is one
   set node, and equal first and last detection times are one option.
   A malformed field fails with the generic readers' message.

   The decoder also notes whether every entry it read would re-encode to
   the octets it came from: a prefix without host bits, i63 fields with
   bits 63 and 62 clear, origins strictly ascending.  A store keeps a
   file's entry octets only when they are canonical. *)

type tables = { names : string Codec.share; lists : string list Codec.share }

(* Sharing trades an allocation for a hash and a comparison, and
   allocating is cheap until the decoded entries outlive a minor
   collection: under a table's worth of entries, reading every list
   afresh is as fast or faster (a one-entry reply decodes in about six
   tenths of the time), so such a decode has no tables. *)
type decoder = { tables : tables option; mutable canonical : bool }

let slots = 64

let decoder ~entries =
  let tables =
    if entries < slots then None
    else Some { names = Codec.share ~slots; lists = Codec.share ~slots }
  in
  { tables; canonical = true }

let canonical d = d.canonical

(* the input ends inside the entry *)
exception Short

(* [n] octets read with one bounds check: their offset in the data *)
let run c n =
  let o = Codec.take_run c n in
  if o < 0 then raise_notrace Short;
  o

let i63_at data o = Int64.to_int (Bytes.get_int64_be data o)
let u32_at data o = Int32.to_int (Bytes.get_int32_be data o) land 0xFFFFFFFF

(* [Codec.take_i63] keeps the low 63 bits: the field re-encodes to its
   octets only when its top octet is below 0x40 *)
let int_at d data o =
  if Bytes.get_uint8 data o >= 0x40 then d.canonical <- false;
  i63_at data o

let option_of_tag d c = function
  | 0 -> None
  | 1 -> Some (int_at d (Codec.data c) (run c 8))
  | t -> Codec.corrupt c "option tag %d" t

(* mostly one detection time: then first and last are one value *)
let last_of_tag d c first = function
  | 0 -> None
  | 1 -> (
    let v = int_at d (Codec.data c) (run c 8) in
    match first with Some f when f = v -> first | _ -> Some v)
  | t -> Codec.corrupt c "option tag %d" t

let prefix_at d c data o =
  let net = u32_at data o and len = Bytes.get_uint8 data (o + 4) in
  if len > 32 then Codec.corrupt c "prefix length %d" len;
  if net land ((1 lsl (32 - len)) - 1) <> 0 then d.canonical <- false;
  Prefix.make (Ipv4.of_int net) len

(* once the count is checked, the 2n octets are there *)
let origins d c data n =
  Codec.check_count c ~elt_size:2 n;
  let o = run c (2 * n) in
  if n = 1 then Asn.Set.singleton (Asn.make (Bytes.get_uint16_be data o))
  else begin
    let set = ref Asn.Set.empty and last = ref (-1) in
    for k = 0 to n - 1 do
      let a = Bytes.get_uint16_be data (o + (2 * k)) in
      if a <= !last then d.canonical <- false;
      last := a;
      set := Asn.Set.add (Asn.make a) !set
    done;
    !set
  end

let read_name () c = Codec.take_string c

let[@tail_mod_cons] rec take_names t c k =
  if k = 0 then []
  else
    let v = Codec.take_shared t.names () c ~skip:Codec.skip_string ~read:read_name in
    v :: take_names t c (k - 1)

let read_names t c = take_names t c (Codec.take_u32 c)

(* The fixed-width fields come in two runs, each read with one bounds
   check: prefix, sequence, start and the end's option tag; then days,
   the most origins and the origin count. *)
let read_entry_lean d c =
  let data = Codec.data c in
  let o = run c 22 in
  let x_prefix = prefix_at d c data o in
  let x_seq = int_at d data (o + 5) in
  let x_started = int_at d data (o + 13) in
  let x_ended = option_of_tag d c (Bytes.get_uint8 data (o + 21)) in
  let o = run c 16 in
  let x_days = int_at d data o in
  let x_max_origins = u32_at data (o + 8) in
  let x_origins = origins d c data (u32_at data (o + 12)) in
  let x_clean = Codec.take_bool c in
  let x_seen_by =
    match d.tables with
    | Some t -> Codec.take_shared t.lists t c ~skip:Codec.skip_strings ~read:read_names
    | None -> Codec.take_list c Codec.take_string
  in
  let x_first_detect = option_of_tag d c (Codec.take_u8 c) in
  let x_last_detect = last_of_tag d c x_first_detect (Codec.take_u8 c) in
  {
    x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins;
    x_origins;
    x_clean;
    x_seen_by;
    x_first_detect;
    x_last_detect;
  }

let read_entry d c =
  let start = Codec.pos c in
  try read_entry_lean d c
  with Short ->
    Codec.rewind c start;
    read_entry_generic c

(* Reversed, then reversed once more.  Built front to back instead (by
   [tail_mod_cons]), a list that outlives a minor collection keeps
   growing from an old cell, and every cell added after it is promoted
   even when the caller drops the list straight away: a floor-2 reply
   promoted twice the words. *)
let read_entries c =
  let n = Codec.take_u32 c in
  Codec.check_count c ~elt_size:1 n;
  let d = decoder ~entries:n in
  let rec loop acc k = if k = 0 then List.rev acc else loop (read_entry d c :: acc) (k - 1) in
  loop [] n

let render_entry ~vantage_count e =
  let origins =
    Asn.Set.elements e.x_origins |> List.map Asn.to_string |> String.concat ","
  in
  let ended =
    match e.x_ended with Some v -> string_of_int v | None -> "open"
  in
  Printf.sprintf "%s#%d [%d..%s] origins={%s} %s visibility=%d/%d"
    (Prefix.to_string e.x_prefix)
    e.x_seq e.x_started ended origins
    (if e.x_clean then "clean" else "FLAGGED")
    (visibility e) vantage_count

let render t =
  let buf = Buffer.create 1024 in
  let n = List.length t.c_vantages in
  Buffer.add_string buf "=== Cross-vantage correlation ===\n";
  Buffer.add_string buf
    (Printf.sprintf "vantages: %d (%s)\n" n (String.concat " " t.c_vantages));
  Buffer.add_string buf
    (Printf.sprintf "merged episodes: %d\n" (List.length t.c_entries));
  List.iter
    (fun e ->
      let origins =
        Asn.Set.elements e.x_origins |> List.map Asn.to_string
        |> String.concat ","
      in
      let ended =
        match e.x_ended with Some v -> string_of_int v | None -> "open"
      in
      let spread =
        match (e.x_first_detect, e.x_last_detect) with
        | Some f, Some l -> Printf.sprintf "first=%d last=%d" f l
        | _ -> "cross-vantage only"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s#%d [%d..%s] origins={%s} %s visibility=%d/%d seen-by=[%s] %s\n"
           (Prefix.to_string e.x_prefix)
           e.x_seq e.x_started ended origins
           (if e.x_clean then "clean" else "FLAGGED")
           (visibility e) n
           (String.concat " " e.x_seen_by)
           spread))
    t.c_entries;
  let full, partial, cross_only =
    List.fold_left
      (fun (f, p, c) e ->
        let k = visibility e in
        if k = n then (f + 1, p, c)
        else if k = 0 then (f, p, c + 1)
        else (f, p + 1, c))
      (0, 0, 0) t.c_entries
  in
  let flagged =
    List.length (List.filter (fun e -> not e.x_clean) t.c_entries)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "visibility: full=%d partial=%d cross-vantage-only=%d\nflagged: %d\n"
       full partial cross_only flagged);
  Buffer.contents buf
