open Net

(* Encode once.  The store never changes after it is built, so every
   entry's octets ([Correlator.write_entry] under the store's name table)
   are written once, into one [bytes] in canonical order, and an entry is
   known by its position in that order.  [encode] is a header and one
   blit; a served [Entries] reply blits the octets of its matches when
   they name every name of the table ([section]).  Every
   index holds positions in canonical order.  Canonical order sorts by
   prefix key, so a prefix's entries are one run of positions, and so
   are those of a prefix and all its more-specifics: the prefix index is
   the sorted keys beside the start of each key's run, searched by
   bisection. *)
type t = {
  roster : string list; (* sorted, deduped *)
  entries : Correlator.entry array; (* canonical order *)
  all : Correlator.entry list; (* the same entries, for [entries] *)
  names : string; (* the name table's octets ([Correlator.write_names]) *)
  octets : bytes; (* every entry's octets, in canonical order *)
  offsets : int array; (* entry [i] is [offsets.(i), offsets.(i + 1)) *)
  masks : int array; (* [i]: the table positions entry [i] names, as bits *)
  every_name : int; (* the mask of the whole table; -1 past 62 names *)
  keys : int array; (* the distinct [Prefix.to_key]s, ascending *)
  starts : int array; (* [i]: first position of keys.(i); then [count] *)
  origins : int array; (* the distinct origin ASes, ascending *)
  by_origin : int array array; (* [i]: origin set holds origins.(i) *)
  by_floor : int array array; (* [k]: visibility >= k *)
}

exception Corrupt of string

(* version 2: one checksummed Codec.Frame, and the compact entry layout *)
let format = Codec.Frame.format ~magic:"MOASSTOR" ~version:2 ~fail:(fun m -> Corrupt m)
let kind = 1

let key (e : Correlator.entry) = Prefix.to_key e.Correlator.x_prefix

(* canonical order: (network, length) order, then start, then seq *)
let compare_full (a : Correlator.entry) (b : Correlator.entry) =
  let c = Int.compare (key a) (key b) in
  if c <> 0 then c
  else
    let c = compare a.Correlator.x_started b.Correlator.x_started in
    if c <> 0 then c else compare a.Correlator.x_seq b.Correlator.x_seq

(* The query indexes, each filled by one walk over the positions in
   ascending order, so every index array comes out in canonical order.

   The origin index holds the distinct origin ASes in ascending order and,
   at the same place, the positions whose origin set holds that AS.  AS
   numbers are 16-bit, so a table of one u16 per AS number first marks
   the origins present, then holds each one's place, and every
   (entry, origin) pair is filed with one lookup.  An [Asn.Map] grown one
   pair at a time cost more than the rest of the build together.

   Floor [k] holds the positions seen by at least [k] vantages; floor 0 is
   every position.  An entry sits on one floor per name it carries, so the
   floors together stay linear in the encoded size. *)

(* the first index in [lo, hi) whose value is at least [a], in an
   ascending array *)
let rec lower_bound_in (sorted : int array) (a : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if sorted.(mid) < a then lower_bound_in sorted a (mid + 1) hi
    else lower_bound_in sorted a lo mid

let lower_bound sorted a = lower_bound_in sorted a 0 (Array.length sorted)

(* [groups ~size each] files positions into [size] groups: [each i f]
   calls [f g] for every group [g] position [i] belongs to.  One walk
   counts, one fills. *)
let groups entries ~size each =
  let counts = Array.make size 0 in
  Array.iteri (fun i _ -> each i (fun g -> counts.(g) <- counts.(g) + 1)) entries;
  let out = Array.map (fun n -> Array.make n 0) counts in
  Array.fill counts 0 size 0;
  Array.iteri
    (fun i _ ->
      each i (fun g ->
          out.(g).(counts.(g)) <- i;
          counts.(g) <- counts.(g) + 1))
    entries;
  out

let origin_index entries =
  let slot = Bytes.make (2 * 65536) '\000' in
  let count = ref 0 in
  Array.iter
    (fun (e : Correlator.entry) ->
      Asn.Set.iter
        (fun a ->
          let a = Asn.to_int a in
          if Bytes.get_uint16_le slot (2 * a) = 0 then begin
            Bytes.set_uint16_le slot (2 * a) 1;
            incr count
          end)
        e.Correlator.x_origins)
    entries;
  (* the scan is ascending, so a place overwrites only marks already read *)
  let origins = Array.make !count 0 in
  let k = ref 0 in
  for a = 0 to 65535 do
    if Bytes.get_uint16_le slot (2 * a) <> 0 then begin
      Bytes.set_uint16_le slot (2 * a) !k;
      origins.(!k) <- a;
      incr k
    end
  done;
  let by_origin =
    groups entries ~size:!count (fun i f ->
        Asn.Set.iter
          (fun a -> f (Bytes.get_uint16_le slot (2 * Asn.to_int a)))
          entries.(i).Correlator.x_origins)
  in
  (origins, by_origin)

let floor_index entries =
  let top = Array.fold_left (fun k e -> max k (Correlator.visibility e)) 0 entries in
  groups entries ~size:(top + 1) (fun i f ->
      for k = 0 to Correlator.visibility entries.(i) do
        f k
      done)

(* the distinct prefix keys and where each one's run starts *)
let runs entries =
  let n = Array.length entries in
  let starts = ref [ n ] in
  for i = n - 1 downto 0 do
    if i = 0 || key entries.(i) <> key entries.(i - 1) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  (Array.init (Array.length starts - 1) (fun j -> key entries.(starts.(j))), starts)

(* A reply may blit the cached octets only under the store's own table,
   and the table a list of entries is written with holds just the names
   they carry ([Correlator.write_entries]): the two agree when the
   matches between them name every name of the table.  Each entry's
   names are kept as bits, so a selection's names are one [lor] per
   match. *)
let rec mask_of table m = function
  | [] -> m
  | name :: rest -> mask_of table (m lor (1 lsl Correlator.name_index table name)) rest

let name_masks table entries =
  let n = Array.length table in
  if n > 62 then (Array.make (Array.length entries) 0, -1)
  else
    ( Array.map (fun (e : Correlator.entry) -> mask_of table 0 e.Correlator.x_seen_by) entries,
      (1 lsl n) - 1 )

let index ~vantages ~table entries (octets, offsets) =
  let origins, by_origin = origin_index entries in
  let keys, starts = runs entries in
  let masks, every_name = name_masks table entries in
  let names = Buffer.create 64 in
  Correlator.write_names names table;
  {
    roster = List.sort_uniq String.compare vantages;
    entries;
    all = Array.to_list entries;
    names = Buffer.contents names;
    octets;
    offsets;
    masks;
    every_name;
    keys;
    starts;
    origins;
    by_origin;
    by_floor = floor_index entries;
  }

(* the store's name table: the roster and every other name an entry
   carries, ascending *)
let table_of ~vantages entries =
  Correlator.name_table
    (Array.fold_left (fun acc (e : Correlator.entry) -> e.Correlator.x_seen_by @ acc) vantages
       entries)

(* The canonical octets, written once: [put_string] and [put_varint]
   reject what the layout cannot hold, so a store that builds can be
   encoded. *)
let write_octets table entries =
  let n = Array.length entries in
  let offsets = Array.make (n + 1) 0 in
  let buf = Buffer.create (32 * n) in
  Array.iteri
    (fun i e ->
      offsets.(i) <- Buffer.length buf;
      Correlator.write_entry table buf e)
    entries;
  offsets.(n) <- Buffer.length buf;
  (Buffer.to_bytes buf, offsets)

(* a correlation and a store file arrive in canonical order already,
   with no duplicate keys: then there is nothing to sort *)
let ascending entries =
  let ok = ref true in
  for i = 1 to Array.length entries - 1 do
    if compare_full entries.(i - 1) entries.(i) >= 0 then ok := false
  done;
  !ok

(* the first of each run of equal keys *)
let[@tail_mod_cons] rec dedup = function
  | a :: b :: rest when compare_full a b = 0 -> dedup (a :: rest)
  | a :: rest -> a :: dedup rest
  | [] -> []

(* Bulk build: one stable sort of all the entries by (prefix, start, seq)
   over the entries newest first, so the first of each run of equal keys
   is the last one given: a later entry replaces an earlier one with the
   same key. *)
let of_entries ~vantages es =
  let entries = Array.of_list es in
  let entries =
    if ascending entries then entries
    else Array.of_list (dedup (List.stable_sort compare_full (List.rev es)))
  in
  let table = table_of ~vantages entries in
  index ~vantages ~table entries (write_octets table entries)

let empty ~vantages = of_entries ~vantages []

let of_correlation (c : Correlator.t) =
  of_entries ~vantages:c.Correlator.c_vantages c.Correlator.c_entries

let vantages t = t.roster
let count t = Array.length t.entries
let entries t = t.all

(* ------------------------------------------------------------------ *)
(* Queries — one typed representation, Collect.Query, shared with the
   CLI --query flag and the Serve.Proto wire message.  The candidates
   come from the narrowest index the query names: a range of positions
   for a prefix clause, else the shorter of the origin and
   visibility-floor arrays, else floor 0, which is every position.
   Query.matches then filters them all, so an index only ever narrows the
   scan, never decides a match. *)

type query = Query.t

type candidates =
  | Range of int * int (* positions [first, stop) *)
  | Positions of int array (* ascending *)

(* A prefix's key, or the keys of it and every more-specific: (network,
   length) order puts a prefix before its more-specifics, and these
   before any key whose network lies past the prefix's last address. *)
let prefix_range t p ~covered =
  let lo = lower_bound t.keys (Prefix.to_key p) in
  let hi =
    if covered then
      let last = Ipv4.to_int (Prefix.network p) lor ((1 lsl (32 - Prefix.length p)) - 1) in
      lower_bound t.keys ((last + 1) lsl 6)
    else if lo < Array.length t.keys && t.keys.(lo) = Prefix.to_key p then lo + 1
    else lo
  in
  Range (t.starts.(lo), t.starts.(hi))

let candidates t q =
  match Query.target q with
  | Some p -> prefix_range t p ~covered:(Query.wants_covered q)
  | None ->
    let by_origin =
      Option.map
        (fun a ->
          let a = Asn.to_int a in
          let k = lower_bound t.origins a in
          if k < Array.length t.origins && t.origins.(k) = a then t.by_origin.(k) else [||])
        (Query.origin_filter q)
    in
    let by_floor =
      Option.map
        (fun k -> if k < Array.length t.by_floor then t.by_floor.(k) else [||])
        (Query.visibility_floor q)
    in
    match (by_origin, by_floor) with
    | Some a, Some b -> Positions (if Array.length a <= Array.length b then a else b)
    | Some a, None | None, Some a -> Positions a
    | None, None -> Positions t.by_floor.(0) (* every position *)

let candidate_count = function
  | Range (first, stop) -> stop - first
  | Positions a -> Array.length a

(* [f acc i] over every candidate position, ascending *)
let fold_candidates f acc = function
  | Range (first, stop) ->
    let acc = ref acc in
    for i = first to stop - 1 do
      acc := f !acc i
    done;
    !acc
  | Positions a -> Array.fold_left f acc a

(* A query that is nothing but the clause its candidate array was picked
   by: the array is its answer, with no [Query.matches] to run. *)
let answered_by_index q =
  let only clause = Query.equal q (clause Query.empty) in
  match (Query.target q, Query.origin_filter q, Query.visibility_floor q) with
  | None, None, None -> Query.equal q Query.empty
  | None, Some a, None -> only (Query.origin a)
  | None, None, Some k -> only (Query.min_visibility k)
  | _ -> false

(* the matches of a query, as ascending positions: the first [n] of the
   array *)
let select t q =
  let matches i = Query.matches q t.entries.(i) in
  match candidates t q with
  | Positions a when answered_by_index q -> (a, Array.length a)
  | cands ->
    let positions = Array.make (candidate_count cands) 0 in
    ( positions,
      fold_candidates
        (fun n i ->
          if matches i then begin
            positions.(n) <- i;
            n + 1
          end
          else n)
        0 cands )

let build t (positions, n) =
  let rec go acc k = if k < 0 then acc else go (t.entries.(positions.(k)) :: acc) (k - 1) in
  go [] (n - 1)

let query t q = build t (select t q)

let count_matching t q =
  match candidates t q with
  | Positions a when answered_by_index q -> Array.length a
  | cands -> fold_candidates (fun n i -> if Query.matches q t.entries.(i) then n + 1 else n) 0 cands

(* The matches' section: when they name every name of the table, the
   table's octets, the count and one blit per run of consecutive
   positions; otherwise the matches written afresh under the table of
   the names they carry.  Either way, the octets of
   [Correlator.write_entries (query t q)]. *)
let section t q =
  let ((p, n) as sel) = select t q in
  let named = ref 0 and size = ref 0 in
  for k = 0 to n - 1 do
    named := !named lor t.masks.(p.(k));
    size := !size + t.offsets.(p.(k) + 1) - t.offsets.(p.(k))
  done;
  if !named = t.every_name then
    ( String.length t.names + 4 + !size,
      fun dst off ->
        let names = String.length t.names in
        Bytes.blit_string t.names 0 dst off names;
        Codec.set_u32 dst (off + names) n;
        let dst_off = ref (off + names + 4) and k = ref 0 in
        while !k < n do
          let first = p.(!k) in
          incr k;
          while !k < n && p.(!k) = p.(!k - 1) + 1 do
            incr k
          done;
          let lo = t.offsets.(first) and hi = t.offsets.(p.(!k - 1) + 1) in
          Bytes.blit t.octets lo dst !dst_off (hi - lo);
          dst_off := !dst_off + hi - lo
        done )
  else begin
    let buf = Buffer.create 256 in
    Correlator.write_entries buf (build t sel);
    (Buffer.length buf, fun dst off -> Buffer.blit buf 0 dst off (Buffer.length buf))
  end

(* ------------------------------------------------------------------ *)
(* Binary encoding: one Codec.Frame, magic MOASSTOR, holding the roster
   and the entry section (the name table, a u32 count, the entries) *)

let encode t =
  let head = Buffer.create 64 in
  Codec.put_list head Codec.put_string t.roster;
  Buffer.add_string head t.names;
  Codec.put_u32 head (count t);
  let hlen = Buffer.length head and len = Bytes.length t.octets in
  Codec.Frame.make format ~kind ~size:(hlen + len) (fun out pos ->
      Buffer.blit head 0 out pos hlen;
      Bytes.blit t.octets 0 out (pos + hlen) len)

(* The entry section is read once: its octets are copied out (the
   caller's bytes are mutable, so the store never aliases them) and each
   entry's offset recorded on the way.  A file whose entries are out of
   order or repeat a key, or whose table is not the roster and the names
   the entries carry, ascending, goes through [of_entries] instead, which
   sorts the entries and writes their octets afresh: a store always
   holds the octets [of_entries] would write. *)
let decode data =
  let c, k = Codec.Frame.open_ format data in
  if k <> kind then Codec.corrupt c "unknown store kind %d" k;
  let roster = Codec.take_list c Codec.take_string in
  let table = Correlator.read_names c in
  let n = Codec.take_u32 c in
  Codec.check_count c ~elt_size:1 n;
  let base = Codec.pos c in
  let offsets = Array.make (n + 1) 0 in
  let d = Correlator.decoder ~entries:n table c in
  let entries =
    Array.init n (fun i ->
        offsets.(i) <- Codec.pos c - base;
        Correlator.read_entry d)
  in
  offsets.(n) <- Codec.pos c - base;
  Codec.expect_end c;
  if ascending entries && table = table_of ~vantages:roster entries then
    index ~vantages:roster ~table entries (Bytes.sub data base offsets.(n), offsets)
  else of_entries ~vantages:roster (Array.to_list entries)

let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (encode t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let data = Bytes.create n in
      really_input ic data 0 n;
      decode data)

(* ------------------------------------------------------------------ *)

let render t =
  let buf = Buffer.create 1024 in
  let n = List.length t.roster in
  Buffer.add_string buf "=== Episode store ===\n";
  Buffer.add_string buf
    (Printf.sprintf "vantages: %d (%s)\n" n (String.concat " " t.roster));
  Buffer.add_string buf (Printf.sprintf "entries: %d\n" (count t));
  List.iter
    (fun (e : Correlator.entry) ->
      Buffer.add_string buf (Correlator.render_entry ~vantage_count:n e);
      Buffer.add_char buf '\n')
    t.all;
  Buffer.contents buf
