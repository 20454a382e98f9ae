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
(* The compact entry layout, shared by the MOASSTOR store and MOASSERV
   [Entries] replies (Net.Codec discipline).  A name table precedes the
   entries, and an entry names its vantages by index into it:

     prefix      u32 network, u8 length
     flags       u8: clean, ended, first and last detection present,
                 last = first (the last is then not written)
     seq, started, [ended], days, max_origins      varints
     origins     varint count, then u16s strictly ascending
     seen_by     varint count, then varint indices, in order
     [first], [last]                               varints

   Every value has one encoding: a varint is shortest-form, origins
   ascend, and equal first and last detections set the flag. *)

let flag_clean = 1
let flag_ended = 2
let flag_first = 4
let flag_last = 8
let flag_same = 16

(* A reply's few names are sorted as a list; the thousands a store's
   entries carry, of a handful of vantages, are first made distinct in a
   hash table, which allocates once per distinct name. *)
let name_table names =
  if List.compare_length_with names 64 < 0 then Array.of_list (List.sort_uniq String.compare names)
  else begin
    let seen = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace seen n ()) names;
    let table = Array.of_seq (Hashtbl.to_seq_keys seen) in
    Array.sort String.compare table;
    table
  end

(* bisection: the table ascends *)
let rec index_in table name lo hi =
  if lo >= hi then invalid_arg ("Correlator: vantage " ^ name ^ " is not in the name table")
  else
    let mid = (lo + hi) / 2 in
    let c = String.compare table.(mid) name in
    if c = 0 then mid else if c < 0 then index_in table name (mid + 1) hi else index_in table name lo mid

let name_index table name = index_in table name 0 (Array.length table)

let write_names buf table = Codec.put_list buf Codec.put_string (Array.to_list table)
let read_names c = Array.of_list (Codec.take_list c Codec.take_string)

let flags e =
  let bit b f = if b then f else 0 in
  bit e.x_clean flag_clean
  lor bit (Option.is_some e.x_ended) flag_ended
  lor
  match (e.x_first_detect, e.x_last_detect) with
  | Some f, Some l when f = l -> flag_first lor flag_last lor flag_same
  | f, l -> bit (Option.is_some f) flag_first lor bit (Option.is_some l) flag_last

let put_option buf = function Some v -> Codec.put_varint buf v | None -> ()

let rec put_indices table buf = function
  | [] -> ()
  | name :: rest ->
    Codec.put_varint buf (name_index table name);
    put_indices table buf rest

let write_entry table buf e =
  let fl = flags e in
  Codec.put_prefix buf e.x_prefix;
  Codec.put_u8 buf fl;
  Codec.put_varint buf e.x_seq;
  Codec.put_varint buf e.x_started;
  put_option buf e.x_ended;
  Codec.put_varint buf e.x_days;
  Codec.put_varint buf e.x_max_origins;
  Codec.put_varint buf (Asn.Set.cardinal e.x_origins);
  Asn.Set.iter (Codec.put_asn buf) e.x_origins;
  Codec.put_varint buf (List.length e.x_seen_by);
  put_indices table buf e.x_seen_by;
  put_option buf e.x_first_detect;
  if fl land flag_same = 0 then put_option buf e.x_last_detect

(* The reader: one Codec reader per field; a name is the table's own
   string, found by its index.  A reply repeats a few vantage lists
   thousands of times, and what a decode keeps is what a minor
   collection promotes, so a list of up to six names of a table of at
   most 128 is packed into an int key (the count in three bits, then
   seven bits an index), and a cache of 64 slots, direct-mapped on the
   key, hands out the list decoded before.  Each index is read and
   checked before the lookup, so the cache changes no failure. *)
type decoder = { c : Codec.cursor; table : string array; lists : (int * string list) array }

(* one slot serves a decode of a few entries: a bigger cache costs more
   than it saves *)
let decoder ~entries table c =
  { c; table; lists = Array.make (if entries < 64 then 1 else 64) (-1, []) }

let rec more_origins c set last k =
  if k = 0 then set
  else
    let a = Codec.take_asn c in
    if a <= last then Codec.corrupt c "origin %d out of order at octet %d" a (Codec.pos c - 2);
    more_origins c (Asn.Set.add a set) a (k - 1)

let origins c =
  let n = Codec.take_varint c in
  Codec.check_count c ~elt_size:2 n;
  more_origins c Asn.Set.empty (-1) n

let index d =
  let i = Codec.take_varint d.c in
  if i >= Array.length d.table then
    Codec.corrupt d.c "vantage %d of a table of %d names" i (Array.length d.table);
  i

let[@tail_mod_cons] rec names d k =
  if k = 0 then []
  else
    let i = index d in
    d.table.(i) :: names d (k - 1)

let rec list_of_key table key j acc =
  if j < 0 then acc else list_of_key table key (j - 1) (table.((key lsr (3 + (7 * j))) land 127) :: acc)

let seen_by d =
  let k = Codec.take_varint d.c in
  Codec.check_count d.c ~elt_size:1 k;
  if k > 6 || Array.length d.table > 128 then names d k
  else begin
    let key = ref k in
    for j = 0 to k - 1 do
      key := !key lor (index d lsl (3 + (7 * j)))
    done;
    let slot = ((!key * 0x2545F4914F6CDD1D) lsr 40) land (Array.length d.lists - 1) in
    match d.lists.(slot) with
    | cached, list when cached = !key -> list
    | _ ->
      let list = list_of_key d.table !key (k - 1) [] in
      d.lists.(slot) <- (!key, list);
      list
  end

let flagged c fl bit = if fl land bit = 0 then None else Some (Codec.take_varint c)

let read_entry d =
  let c = d.c in
  let x_prefix = Codec.take_prefix c in
  let fl = Codec.take_u8 c in
  let both = flag_first lor flag_last in
  if fl > 31 || (fl land flag_same <> 0 && fl land both <> both) then
    Codec.corrupt c "entry flags %#x" fl;
  let x_seq = Codec.take_varint c in
  let x_started = Codec.take_varint c in
  let x_ended = flagged c fl flag_ended in
  let x_days = Codec.take_varint c in
  let x_max_origins = Codec.take_varint c in
  let x_origins = origins c in
  let x_seen_by = seen_by d in
  let x_first_detect = flagged c fl flag_first in
  let x_last_detect =
    if fl land flag_same <> 0 then x_first_detect
    else
      let last = flagged c fl flag_last in
      match (x_first_detect, last) with
      | Some f, Some l when f = l ->
        Codec.corrupt c "last detection repeats the first at octet %d" (Codec.pos c)
      | _ -> last
  in
  {
    x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins;
    x_origins;
    x_clean = fl land flag_clean <> 0;
    x_seen_by;
    x_first_detect;
    x_last_detect;
  }

let write_entries buf es =
  let table = name_table (List.concat_map (fun e -> e.x_seen_by) es) in
  write_names buf table;
  Codec.put_u32 buf (List.length es);
  List.iter (write_entry table buf) es

(* Reversed, then reversed once more.  Built front to back instead (by
   [tail_mod_cons]), a list that outlives a minor collection keeps
   growing from an old cell, and every cell added after it is promoted
   even when the caller drops the list straight away. *)
let read_entries c =
  let table = read_names c in
  let n = Codec.take_u32 c in
  Codec.check_count c ~elt_size:1 n;
  let d = decoder ~entries:n table c in
  let rec loop acc k = if k = 0 then List.rev acc else loop (read_entry d :: acc) (k - 1) in
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
