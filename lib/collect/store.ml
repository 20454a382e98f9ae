open Net

type t = {
  roster : string list; (* sorted, deduped *)
  trie : Correlator.entry list Prefix_trie.t; (* per-prefix, (started, seq) order *)
  count : int;
}

exception Corrupt of string

let magic = "MOASSTOR"
let version = 1

let empty ~vantages =
  { roster = List.sort_uniq String.compare vantages; trie = Prefix_trie.empty; count = 0 }

let compare_entry (a : Correlator.entry) (b : Correlator.entry) =
  let c = compare a.Correlator.x_started b.Correlator.x_started in
  if c <> 0 then c else compare a.Correlator.x_seq b.Correlator.x_seq

let same_key (a : Correlator.entry) (b : Correlator.entry) =
  a.Correlator.x_started = b.Correlator.x_started
  && a.Correlator.x_seq = b.Correlator.x_seq

let add (e : Correlator.entry) t =
  let replaced = ref false in
  let trie =
    Prefix_trie.update e.Correlator.x_prefix
      (fun prev ->
        let prev = Option.value prev ~default:[] in
        let kept =
          List.filter
            (fun old ->
              if same_key old e then (
                replaced := true;
                false)
              else true)
            prev
        in
        Some (List.sort compare_entry (e :: kept)))
      t.trie
  in
  { t with trie; count = (if !replaced then t.count else t.count + 1) }

(* Bulk build: one sort of all the entries by (prefix, start, seq), then
   one pass that drops same-key duplicates and adds each prefix's run to
   the trie.  The sort is stable over the entries newest first, so the
   first of each run of equal keys is the last one given — the entry a
   sequence of [add]s would have kept.  Adding the prefixes in trie order
   also lays the trie out in the order queries walk it. *)
let of_entries ~vantages es =
  let key (e : Correlator.entry) = Prefix.to_key e.Correlator.x_prefix in
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = Int.compare (key a) (key b) in
        if c <> 0 then c else compare_entry a b)
      (List.rev es)
  in
  let add_run t = function
    | [] -> t
    | (e : Correlator.entry) :: _ as run ->
      {
        t with
        trie = Prefix_trie.add e.Correlator.x_prefix (List.rev run) t.trie;
        count = t.count + List.length run;
      }
  in
  let t, run =
    List.fold_left
      (fun (t, run) e ->
        match run with
        | prev :: _ when key prev = key e ->
          if same_key prev e then (t, run) else (t, e :: run)
        | _ -> (add_run t run, [ e ]))
      (empty ~vantages, []) sorted
  in
  add_run t run

let of_correlation (c : Correlator.t) =
  of_entries ~vantages:c.Correlator.c_vantages c.Correlator.c_entries

let vantages t = t.roster
let count t = t.count

let entries t =
  List.rev
    (Prefix_trie.fold (fun _ es acc -> List.rev_append es acc) t.trie [])

(* ------------------------------------------------------------------ *)
(* Queries — one typed representation, Collect.Query, shared with the
   CLI --query flag and the Serve.Proto wire message.  The prefix clause
   is answered from the trie; the remaining clauses filter. *)

type query = Query.t

let query_all = Query.empty

let candidates t q =
  match Query.target q with
  | None -> entries t
  | Some p when Query.wants_covered q ->
    List.concat_map (fun (_, es) -> es) (Prefix_trie.covered p t.trie)
  | Some p -> Option.value (Prefix_trie.find_opt p t.trie) ~default:[]

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
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Codec.put_u8 buf version;
  Codec.put_list buf put_string t.roster;
  Codec.put_list buf put_entry (entries t);
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
    (entries t);
  Buffer.contents buf
