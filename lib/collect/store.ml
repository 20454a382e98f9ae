open Net

type t = {
  roster : string list; (* sorted, deduped *)
  trie : Correlator.entry list Prefix_trie.t; (* per-prefix, (started, seq) order *)
  count : int;
  (* built once with the trie; every entry list is in canonical order *)
  all : Correlator.entry list;
  origins : int array; (* the distinct origin ASes, ascending *)
  by_origin : Correlator.entry list array; (* [i]: origin set holds origins.(i) *)
  by_floor : Correlator.entry list array; (* [k]: visibility >= k *)
}

exception Corrupt of string

let magic = "MOASSTOR"
let version = 1

let compare_entry (a : Correlator.entry) (b : Correlator.entry) =
  let c = compare a.Correlator.x_started b.Correlator.x_started in
  if c <> 0 then c else compare a.Correlator.x_seq b.Correlator.x_seq

let same_key (a : Correlator.entry) (b : Correlator.entry) =
  a.Correlator.x_started = b.Correlator.x_started
  && a.Correlator.x_seq = b.Correlator.x_seq

(* The query indexes, filled by one walk over the canonical list from
   back to front, so every index list comes out in canonical order.

   The origin index holds the distinct origin ASes in ascending order and,
   at the same position, the entries whose origin set holds that AS.  AS
   numbers are 16-bit, so a table of one u16 per AS number first marks
   the origins present, then holds each one's position, and every
   (entry, origin) pair is filed with one lookup.  An [Asn.Map] grown one
   pair at a time cost more than the rest of the build together.

   Floor [k] holds the entries seen by at least [k] vantages; floor 0 is
   every entry.  An entry sits on one floor per name it carries, so the
   floors together stay linear in the encoded size. *)

let bisect (keys : int array) (a : int) =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      if keys.(mid) = a then Some mid
      else if keys.(mid) < a then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length keys)

let origin_index rev =
  let each_pair f =
    List.iter
      (fun (e : Correlator.entry) ->
        Asn.Set.iter (fun a -> f e (Asn.to_int a)) e.Correlator.x_origins)
      rev
  in
  let slot = Bytes.make (2 * 65536) '\000' in
  let count = ref 0 in
  each_pair (fun _ a ->
      if Bytes.get_uint16_le slot (2 * a) = 0 then begin
        Bytes.set_uint16_le slot (2 * a) 1;
        incr count
      end);
  (* the scan is ascending, so a position overwrites only marks already read *)
  let origins = Array.make !count 0 in
  let k = ref 0 in
  for a = 0 to 65535 do
    if Bytes.get_uint16_le slot (2 * a) <> 0 then begin
      Bytes.set_uint16_le slot (2 * a) !k;
      origins.(!k) <- a;
      incr k
    end
  done;
  let lists = Array.make !count [] in
  each_pair (fun e a ->
      let k = Bytes.get_uint16_le slot (2 * a) in
      lists.(k) <- e :: lists.(k));
  (origins, lists)

let floor_index ~all rev =
  let top = List.fold_left (fun k e -> max k (Correlator.visibility e)) 0 rev in
  let floors = Array.make (top + 1) [] in
  List.iter
    (fun e ->
      for k = 1 to Correlator.visibility e do
        floors.(k) <- e :: floors.(k)
      done)
    rev;
  floors.(0) <- all;
  floors

let index roster trie count =
  let rev = Prefix_trie.fold (fun _ es acc -> List.rev_append es acc) trie [] in
  let all = List.rev rev in
  let origins, by_origin = origin_index rev in
  { roster; trie; count; all; origins; by_origin; by_floor = floor_index ~all rev }

(* Bulk build: one sort of all the entries by (prefix, start, seq), then
   one pass that drops same-key duplicates and adds each prefix's run to
   the trie.  The sort is stable over the entries newest first, so the
   first of each run of equal keys is the last one given: a later entry
   replaces an earlier one with the same key.  Adding the prefixes in
   trie order also lays the trie out in the order queries walk it. *)
let of_entries ~vantages es =
  let key (e : Correlator.entry) = Prefix.to_key e.Correlator.x_prefix in
  let compare_full a b =
    let c = Int.compare (key a) (key b) in
    if c <> 0 then c else compare_entry a b
  in
  (* a correlation and a decoded store file arrive in canonical order
     already, with no duplicate keys: then there is nothing to sort *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> compare_full a b < 0 && ascending rest
    | _ -> true
  in
  let sorted = if ascending es then es else List.stable_sort compare_full (List.rev es) in
  let add_run (trie, count) = function
    | [] -> (trie, count)
    | (e : Correlator.entry) :: _ as run ->
      (Prefix_trie.add e.Correlator.x_prefix (List.rev run) trie, count + List.length run)
  in
  let acc, run =
    List.fold_left
      (fun (acc, run) e ->
        match run with
        | prev :: _ when key prev = key e ->
          if same_key prev e then (acc, run) else (acc, e :: run)
        | _ -> (add_run acc run, [ e ]))
      ((Prefix_trie.empty, 0), [])
      sorted
  in
  let trie, count = add_run acc run in
  index (List.sort_uniq String.compare vantages) trie count

let empty ~vantages = of_entries ~vantages []

let of_correlation (c : Correlator.t) =
  of_entries ~vantages:c.Correlator.c_vantages c.Correlator.c_entries

let vantages t = t.roster
let count t = t.count
let entries t = t.all

(* ------------------------------------------------------------------ *)
(* Queries — one typed representation, Collect.Query, shared with the
   CLI --query flag and the Serve.Proto wire message.  The candidates
   come from the narrowest index the query names: the trie for a prefix
   clause, else the shorter of the origin and visibility-floor lists,
   else every entry.  Query.matches then filters them all, so an index
   only ever narrows the scan, never decides a match. *)

type query = Query.t

let query_all = Query.empty

let candidates t q =
  match Query.target q with
  | Some p when Query.wants_covered q ->
    List.concat_map (fun (_, es) -> es) (Prefix_trie.covered p t.trie)
  | Some p -> Option.value (Prefix_trie.find_opt p t.trie) ~default:[]
  | None ->
    let by_origin =
      Option.map
        (fun a ->
          match bisect t.origins (Asn.to_int a) with
          | Some k -> t.by_origin.(k)
          | None -> [])
        (Query.origin_filter q)
    in
    let by_floor =
      Option.map
        (fun k -> if k < Array.length t.by_floor then t.by_floor.(k) else [])
        (Query.visibility_floor q)
    in
    match (by_origin, by_floor) with
    | Some a, Some b -> if List.compare_lengths a b <= 0 then a else b
    | Some a, None | None, Some a -> a
    | None, None -> t.all

let query t q = List.filter (Query.matches q) (candidates t q)

let count_matching t q =
  if Query.equal q Query.empty then t.count
  else
    List.fold_left (fun n e -> if Query.matches q e then n + 1 else n) 0 (candidates t q)

let parse_query = Query.parse

(* ------------------------------------------------------------------ *)
(* Binary encoding — Net.Codec discipline, magic MOASSTOR *)

let put_string = Codec.put_string
let put_entry = Correlator.write_entry

let encode t =
  (* sized exactly: magic 8, version 1, the two list counts 4 each, then
     the roster names and the entries *)
  let size =
    List.fold_left
      (fun n e -> n + Correlator.entry_size e)
      (List.fold_left (fun n v -> n + 2 + String.length v) 17 t.roster)
      t.all
  in
  let buf = Buffer.create size in
  Buffer.add_string buf magic;
  Codec.put_u8 buf version;
  Codec.put_list buf put_string t.roster;
  Codec.put_list buf put_entry t.all;
  Buffer.to_bytes buf

let decode data =
  let c = Codec.cursor ~fail:(fun m -> Corrupt m) data in
  if Bytes.length data < String.length magic then
    raise (Corrupt "not an episode store");
  Codec.expect_magic c magic;
  (match Codec.take_u8 c with
  | v when v = version -> ()
  | v -> raise (Corrupt (Printf.sprintf "unsupported store version %d" v)));
  let roster = Codec.take_list c Codec.take_string in
  let es = Codec.take_list c Correlator.read_entry in
  Codec.expect_end c;
  of_entries ~vantages:roster es

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
  Buffer.add_string buf (Printf.sprintf "entries: %d\n" t.count);
  List.iter
    (fun (e : Correlator.entry) ->
      Buffer.add_string buf (Correlator.render_entry ~vantage_count:n e);
      Buffer.add_char buf '\n')
    t.all;
  Buffer.contents buf
