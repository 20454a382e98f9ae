(* Tests for lib/collect: vantage recording off the network tap, mesh
   merge/dedup determinism, cross-vantage correlation, the episode store's
   binary round-trip and queries, and the canonical scenario's
   partial-visibility behaviour under a lib/faults partition. *)

open Net
module M = Stream.Monitor
module Src = Stream.Source
module Ck = Stream.Checkpoint
module V = Collect.Vantage
module Mesh = Collect.Mesh
module Corr = Collect.Correlator
module Store = Collect.Store

let p1 = Prefix.of_string "192.0.2.0/24"
let p2 = Prefix.of_string "198.51.100.0/24"
let p2_sub = Prefix.of_string "198.51.100.128/25"

let ev ?(peer = 99) ~time prefix action = { M.time; peer = Asn.make peer; prefix; action }

let ann ?list o =
  M.Announce { origin = Asn.make o; moas_list = Option.map Asn.Set.of_list list }

let wd o = M.Withdraw { origin = Asn.make o }

let config = { M.default_config with M.window = 10_000 }

let encode_snapshot = Ck.encode

(* ---------------- vantage recording ---------------- *)

let test_tap_records_origin_events () =
  let network = Bgp.Network.make (Testutil.small_graph ()) in
  let specs = [ V.spec ~name:"v0" [ Asn.make 2; Asn.make 5 ] ] in
  let v =
    match V.attach network specs with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one vantage"
  in
  Bgp.Network.originate network (Asn.make 6) p1
    ~communities:(Moas.Moas_list.encode (Asn.Set.singleton (Asn.make 6)));
  ignore (Bgp.Network.run network);
  (* both feeds converge on origin 6: the refcounted view emits exactly
     one announce, whichever feed reported first *)
  Alcotest.(check int) "one origin-level event" 1 (V.event_count v);
  (match (V.events v).(0) with
  | { M.action = M.Announce { origin; moas_list }; prefix; _ } ->
    Alcotest.check Testutil.prefix_testable "prefix" p1 prefix;
    Alcotest.(check int) "origin" 6 (Asn.to_int origin);
    Alcotest.(check (option Testutil.asn_set_testable))
      "MOAS list decoded from communities"
      (Some (Asn.Set.singleton (Asn.make 6)))
      moas_list
  | _ -> Alcotest.fail "expected an announce");
  Alcotest.(check string) "name" "v0" (V.name v)

let test_attach_validation () =
  let network = Bgp.Network.make (Testutil.small_graph ()) in
  Alcotest.check_raises "duplicate vantage names"
    (Invalid_argument "Vantage.attach: duplicate vantage dup")
    (fun () ->
      ignore
        (V.attach network
           [ V.spec ~name:"dup" [ Asn.make 1 ]; V.spec ~name:"dup" [ Asn.make 2 ] ]));
  Alcotest.check_raises "peer outside the topology"
    (Invalid_argument "Vantage.attach: AS77 is not in the topology")
    (fun () -> ignore (V.attach network [ V.spec ~name:"v" [ Asn.make 77 ] ]))

let test_dropped_counter () =
  let metrics = Obs.Registry.create () in
  let network = Bgp.Network.make (Testutil.small_graph ()) in
  let _ = V.attach ~metrics network [ V.spec ~name:"v0" [ Asn.make 2 ] ] in
  Bgp.Network.originate network (Asn.make 6) p1;
  ignore (Bgp.Network.run network);
  let dump = Obs.Registry.to_json_lines metrics in
  Testutil.check_contains ~what:"metrics dump" dump "collect_updates_dropped";
  Testutil.check_contains ~what:"metrics dump" dump "collect_events_total"

let test_millis () =
  Alcotest.(check int) "whole seconds" 2000 (V.millis 2.0);
  Alcotest.(check int) "sub-millisecond rounds" 2 (V.millis 0.0015)

(* ---------------- mesh merge ---------------- *)

let test_merge_dedup () =
  let events = [| ev ~time:0 p1 (ann 10); ev ~time:5 p1 (ann 20) |] in
  let merged, dups = Mesh.merge_streams [ ("b", events); ("a", events) ] in
  Alcotest.(check int) "union is deduplicated" 2 (Array.length merged);
  Alcotest.(check int) "every double observation counted" 2 dups;
  Array.iter
    (fun t -> Alcotest.(check string) "first observer by name" "a" t.Mesh.tag)
    merged

let test_canonical_order () =
  let a = ev ~time:7 p1 (ann 10) and w = ev ~time:7 p1 (wd 20) in
  Alcotest.(check bool) "withdrawals sort before announcements" true
    (Mesh.compare_event w a < 0)

let test_run_validation () =
  Alcotest.check_raises "empty mesh" (Invalid_argument "Mesh.run: no vantages")
    (fun () -> ignore (Mesh.run config []));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Mesh.run: duplicate vantage v") (fun () ->
      ignore (Mesh.run config [ ("v", [||]); ("v", [||]) ]))

let test_flagged_while_open () =
  (* the conflict closes before the end of the stream: per-step settling
     must still have validated (and flagged) it while it was open *)
  let events =
    [|
      ev ~time:0 p1 (ann ~list:[ 10 ] 10);
      ev ~time:10 p1 (ann 20);
      ev ~time:20 p1 (wd 20);
    |]
  in
  let r = Mesh.run config [ ("v0", events) ] in
  match r.Mesh.r_merged.M.s_closed with
  | [ e ] -> Alcotest.(check bool) "episode flagged while open" false e.M.e_clean
  | eps -> Alcotest.failf "expected 1 closed episode, got %d" (List.length eps)

let test_duplicates_counter_lazy () =
  let metrics = Obs.Registry.create () in
  let events = [| ev ~time:0 p1 (ann 10) |] in
  ignore (Mesh.run ~metrics config [ ("a", events) ]);
  let dump = Obs.Registry.to_json_lines metrics in
  Alcotest.(check bool) "no duplicates, no sample" false
    (Testutil.contains dump "stream_merge_duplicates");
  ignore (Mesh.run ~metrics config [ ("a", events); ("b", events) ]);
  let dump = Obs.Registry.to_json_lines metrics in
  Testutil.check_contains ~what:"metrics dump" dump "stream_merge_duplicates"

(* ---------------- qcheck properties ---------------- *)

let script_prefixes =
  [| p1; p2; p2_sub; Prefix.of_string "203.0.113.0/24" |]

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 120)
      (triple (int_range 0 3) (int_range 1 6) (int_range 0 3)))

let act o = function
  | 0 -> wd o
  | 1 -> ann o
  | 2 -> ann ~list:[ 1; 2; 3; 4; 5; 6 ] o
  | _ -> ann ~list:[ o ] o

let script_events script =
  Array.of_list
    (List.mapi (fun i (pi, o, k) -> ev ~time:(i * 10) script_prefixes.(pi) (act o k)) script)

let script_batches script =
  let events = script_events script in
  let time = if Array.length events = 0 then 0 else events.(Array.length events - 1).M.time in
  [| { Src.time; day = None; events } |]

let replay_streams ?(coverage = 0.6) ?(vantages = 3) script =
  V.replay ~coverage ~vantages ~seed:0xC0FFEEL (script_batches script)

let prop_merged_equals_global =
  Testutil.qtest ~count:100
    "mesh merged view == single monitor over the global stream" script_gen
    (fun script ->
      (* every event is forced to at least one vantage, so the deduped
         union is exactly the input stream *)
      let mesh = Mesh.run config (replay_streams script) in
      let solo = Mesh.run config [ ("all", script_events script) ] in
      encode_snapshot mesh.Mesh.r_merged = encode_snapshot solo.Mesh.r_merged)

let prop_full_coverage_vantages_agree =
  Testutil.qtest ~count:100
    "full coverage: every vantage equals the merged view" script_gen
    (fun script ->
      let r = Mesh.run config (replay_streams ~coverage:1.0 script) in
      let merged = encode_snapshot r.Mesh.r_merged in
      List.for_all
        (fun (_, snap) -> encode_snapshot snap = merged)
        r.Mesh.r_per_vantage)

let prop_jobs_and_order_invariance =
  Testutil.qtest ~count:60 "jobs count and vantage order are invisible"
    script_gen (fun script ->
      let streams = replay_streams script in
      let a = Mesh.run ~jobs:1 config streams in
      let b = Mesh.run ~jobs:8 config (List.rev streams) in
      encode_snapshot a.Mesh.r_merged = encode_snapshot b.Mesh.r_merged
      && List.for_all2
           (fun (na, sa) (nb, sb) ->
             na = nb && encode_snapshot sa = encode_snapshot sb)
           a.Mesh.r_per_vantage b.Mesh.r_per_vantage
      && a.Mesh.r_duplicates = b.Mesh.r_duplicates)

(* The pre-heap reference merge: global sort by (event, tag) and a fold
   that collapses runs of equal events, keeping the name-order first
   observer.  The k-way heap merge must reproduce it exactly — same
   output order, same tags, same duplicate count. *)
let reference_merge streams =
  let all =
    List.concat_map
      (fun (name, events) ->
        Array.to_list (Array.map (fun event -> (name, event)) events))
      streams
  in
  let sorted =
    List.sort
      (fun (ta, a) (tb, b) ->
        let c = Mesh.compare_event a b in
        if c <> 0 then c else String.compare ta tb)
      all
  in
  let merged, dups =
    List.fold_left
      (fun (acc, dups) (tag, event) ->
        match acc with
        | (_, prev) :: _ when Mesh.compare_event prev event = 0 ->
          (acc, dups + 1)
        | _ -> ((tag, event) :: acc, dups))
      ([], 0) sorted
  in
  (List.rev merged, dups)

(* per-event (vantage, action kind) + (prefix, origin, time): times are
   drawn from a small range and not sorted, so the streams arrive
   unsorted and full of cross- and intra-vantage duplicates *)
let merge_script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 120)
      (pair
         (pair (int_range 0 2) (int_range 0 3))
         (triple (int_range 0 3) (int_range 1 6) (int_range 0 30))))

let prop_heap_merge_matches_reference =
  Testutil.qtest ~count:200 "heap merge equals the sort-based reference"
    merge_script_gen (fun script ->
      let accs = Array.make 3 [] in
      List.iter
        (fun ((v, k), (pi, o, time)) ->
          accs.(v) <-
            ev ~time:(time * 10) script_prefixes.(pi) (act o k) :: accs.(v))
        script;
      let streams =
        List.init 3 (fun v ->
            (Printf.sprintf "v%d" v, Array.of_list (List.rev accs.(v))))
      in
      let merged, dups = Mesh.merge_streams streams in
      let ref_merged, ref_dups = reference_merge streams in
      dups = ref_dups
      && Array.length merged = List.length ref_merged
      && List.for_all2
           (fun t (tag, event) ->
             String.equal t.Mesh.tag tag
             && Mesh.compare_event t.Mesh.event event = 0)
           (Array.to_list merged) ref_merged)

(* The correlator before it indexed the views by prefix, kept as the
   reference: every merged episode scans every vantage's whole episode
   list. *)
let reference_correlate ~vantages ~merged =
  let module R = Stream.Report in
  let vantages = List.sort (fun (a, _) (b, _) -> String.compare a b) vantages in
  let views = List.map (fun (name, snap) -> (name, R.episodes snap)) vantages in
  let overlaps ~started ~ended (v : R.episode_view) =
    let hi = Option.value ended ~default:max_int in
    let v_hi = Option.value v.R.v_ended ~default:max_int in
    v.R.v_started <= hi && started <= v_hi
  in
  let entries =
    List.map
      (fun (m : R.episode_view) ->
        let sightings =
          List.filter_map
            (fun (name, eps) ->
              match
                List.filter
                  (fun (v : R.episode_view) ->
                    Prefix.compare v.R.v_prefix m.R.v_prefix = 0
                    && overlaps ~started:m.R.v_started ~ended:m.R.v_ended v)
                  eps
              with
              | [] -> None
              | matching ->
                Some
                  ( name,
                    List.fold_left
                      (fun acc (v : R.episode_view) -> min acc v.R.v_started)
                      max_int matching ))
            views
        in
        let detects = List.map snd sightings in
        {
          Corr.x_prefix = m.R.v_prefix;
          x_seq = m.R.v_seq;
          x_started = m.R.v_started;
          x_ended = m.R.v_ended;
          x_days = m.R.v_days;
          x_max_origins = m.R.v_max_origins;
          x_origins = m.R.v_origins;
          x_clean = m.R.v_clean;
          x_seen_by = List.map fst sightings;
          x_first_detect =
            (match detects with [] -> None | _ -> Some (List.fold_left min max_int detects));
          x_last_detect =
            (match detects with [] -> None | _ -> Some (List.fold_left max min_int detects));
        })
      (R.episodes merged)
  in
  { Corr.c_vantages = List.map fst vantages; c_entries = entries }

let entry_equal (a : Corr.entry) (b : Corr.entry) =
  Prefix.equal a.Corr.x_prefix b.Corr.x_prefix
  && a.Corr.x_seq = b.Corr.x_seq && a.Corr.x_started = b.Corr.x_started
  && a.Corr.x_ended = b.Corr.x_ended && a.Corr.x_days = b.Corr.x_days
  && a.Corr.x_max_origins = b.Corr.x_max_origins
  && Asn.Set.equal a.Corr.x_origins b.Corr.x_origins
  && Bool.equal a.Corr.x_clean b.Corr.x_clean
  && List.equal String.equal a.Corr.x_seen_by b.Corr.x_seen_by
  && a.Corr.x_first_detect = b.Corr.x_first_detect
  && a.Corr.x_last_detect = b.Corr.x_last_detect

let shuffle seed l =
  let a = Array.of_list l in
  Mutil.Rng.shuffle (Mutil.Rng.create ~seed:(Int64.of_int seed)) a;
  Array.to_list a

(* Several vantages at partial coverage, over a script that spans many
   windows, so prefixes recur and the vantages' episodes overlap the
   merged ones only in part. *)
let prop_correlator_matches_reference =
  Testutil.qtest ~count:150 "indexed correlator equals the scan reference in any order"
    QCheck2.Gen.(
      quad script_gen (int_range 1 5) (float_range 0.2 1.0) (int_range 0 1_000_000))
    (fun (script, vantages, coverage, seed) ->
      let r = Mesh.run config (replay_streams ~coverage ~vantages script) in
      let per_vantage = shuffle seed r.Mesh.r_per_vantage in
      let got = Corr.correlate ~vantages:per_vantage ~merged:r.Mesh.r_merged in
      let want =
        reference_correlate ~vantages:r.Mesh.r_per_vantage ~merged:r.Mesh.r_merged
      in
      String.equal (Corr.render got) (Corr.render want)
      && List.equal entry_equal got.Corr.c_entries want.Corr.c_entries)

(* ---------------- store ---------------- *)

let entry ?(seq = 1) ?ended ?(days = 1) ?(max_origins = 2) ?(clean = true)
    ?(seen = [ "vp00" ]) ?first ?last ~prefix ~origins ~started () =
  {
    Corr.x_prefix = prefix;
    x_seq = seq;
    x_started = started;
    x_ended = ended;
    x_days = days;
    x_max_origins = max_origins;
    x_origins = Asn.Set.of_list (List.map Asn.make origins);
    x_clean = clean;
    x_seen_by = seen;
    x_first_detect = first;
    x_last_detect = last;
  }

let sample_store () =
  Store.of_correlation
    {
      Corr.c_vantages = [ "vp00"; "vp01"; "vp02" ];
      c_entries =
        [
          entry ~prefix:p1 ~origins:[ 10; 20 ] ~started:100 ~ended:900
            ~clean:false
            ~seen:[ "vp00"; "vp02" ]
            ~first:120 ~last:300 ();
          entry ~prefix:p2 ~origins:[ 30; 40 ] ~started:50
            ~seen:[ "vp00"; "vp01"; "vp02" ]
            ~first:50 ~last:60 ();
          entry ~prefix:p2_sub ~origins:[ 30; 99 ] ~started:400 ~ended:500
            ~seen:[] ();
        ];
    }

(* A MOASSTOR file holding [es] exactly as given: unsorted, with
   duplicates, the way a crafted file could. *)
let moasstor = Codec.Frame.format ~magic:"MOASSTOR" ~version:2 ~fail:(fun m -> Store.Corrupt m)

let names_of es = List.concat_map (fun (e : Corr.entry) -> e.Corr.x_seen_by) es

(* A MOASSTOR file written field by field, its entries in the order
   given: the roster, a name table (by default the store's own: the
   roster and every name an entry carries), the count and the entries. *)
let raw_store_bytes ?table ~vantages es =
  let table = Option.value table ~default:(Corr.name_table (vantages @ names_of es)) in
  Codec.Frame.encode moasstor ~kind:1 (fun buf ->
      Codec.put_list buf Codec.put_string vantages;
      Corr.write_names buf table;
      Codec.put_u32 buf (List.length es);
      List.iter (Corr.write_entry table buf) es)

(* The list model of a store: a later entry replaces an earlier one with
   the same (prefix, start, seq) key, then everything is sorted into
   canonical order. *)
let model_entries es =
  let key (e : Corr.entry) =
    (Prefix.to_key e.Corr.x_prefix, e.Corr.x_started, e.Corr.x_seq)
  in
  List.fold_left (fun kept e -> e :: List.filter (fun o -> key o <> key e) kept) [] es
  |> List.sort (fun a b -> compare (key a) (key b))

let matches_model ~vantages es t =
  let want = model_entries es in
  Store.count t = List.length want
  && Bytes.equal (Store.encode t)
       (raw_store_bytes ~vantages:(List.sort_uniq String.compare vantages) want)
  && List.equal entry_equal (Store.entries t) want

(* 20,000 entries on one prefix, shuffled, over 256 (start, seq) keys,
   each duplicate with its own payload so that "last one wins" shows. *)
let test_store_decode_one_prefix () =
  let n = 20_000 in
  let es =
    shuffle 7
      (List.init n (fun i ->
           entry ~prefix:p1 ~origins:[ 10; 20 ] ~started:(i mod 128) ~seq:(1 + (i / 128 mod 2))
             ~days:i ()))
  in
  let vantages = [ "vp00"; "vp01" ] in
  let decoded = Store.decode (raw_store_bytes ~vantages es) in
  Alcotest.(check int) "one entry per key" 256 (Store.count decoded);
  Alcotest.(check bool) "decode == list model" true
    (matches_model ~vantages es decoded)

let store_entries_gen =
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (map
         (fun ((pi, started, seq), (days, o, clean)) ->
           entry ~prefix:script_prefixes.(pi) ~origins:[ 10; 10 + o ] ~started ~seq ~days ~clean ())
         (pair
            (triple (int_range 0 3) (int_range 0 6) (int_range 1 3))
            (triple (int_range 1 50) (int_range 1 5) bool))))

let prop_bulk_store_matches_add =
  Testutil.qtest ~count:300 "bulk build and decode equal sequential add" store_entries_gen
    (fun es ->
      let vantages = [ "vp01"; "vp00" ] in
      (* also in key order, where equal keys sit side by side *)
      let in_order =
        List.stable_sort
          (fun (a : Corr.entry) (b : Corr.entry) ->
            compare
              (Prefix.to_key a.Corr.x_prefix, a.Corr.x_started, a.Corr.x_seq)
              (Prefix.to_key b.Corr.x_prefix, b.Corr.x_started, b.Corr.x_seq))
          es
      in
      List.for_all
        (fun es ->
          matches_model ~vantages es (Store.of_entries ~vantages es)
          && matches_model ~vantages es (Store.decode (raw_store_bytes ~vantages es)))
        [ es; in_order ])

(* Stores whose entries spread over every index: several origins each,
   zero to four vantages (every visibility floor), open and closed
   episodes, and day counts in all three duration buckets. *)
let indexed_store_gen =
  QCheck2.Gen.(
    list_size (int_range 0 50)
      (map
         (fun ((pi, started, seq), (ended, days, origins), seen) ->
           entry ~prefix:script_prefixes.(pi) ~origins ~started ~seq
             ?ended:(Option.map (fun d -> started + d) ended)
             ~days
             ~seen:
               (List.filteri
                  (fun i _ -> seen land (1 lsl i) <> 0)
                  [ "vp00"; "vp01"; "vp02"; "vp03" ])
             ())
         (triple
            (triple (int_range 0 3) (int_range 0 8) (int_range 1 3))
            (triple (opt (int_range 0 4)) (oneofl [ 1; 2; 30; 61; 200 ])
               (list_size (int_range 1 3) (int_range 10 15)))
            (int_range 0 15))))

let query_gen =
  let clause g f = QCheck2.Gen.(map (function None -> Fun.id | Some v -> f v) (opt g)) in
  QCheck2.Gen.(
    map
      (fun fs -> List.fold_left (fun q f -> f q) Collect.Query.empty fs)
      (flatten_l
         [
           clause
             (oneofl
                (List.map Prefix.of_string
                   [ "198.51.100.0/23"; "0.0.0.0/0"; "198.51.100.128/32"; "198.51.101.0/24" ]
                @ Array.to_list script_prefixes))
             Collect.Query.prefix;
           map (fun b -> if b then Collect.Query.covered else Fun.id) bool;
           clause (int_range 9 16) (fun a -> Collect.Query.origin (Asn.make a));
           clause (int_range 0 12) Collect.Query.since;
           clause (int_range 0 12) Collect.Query.until;
           clause (int_range 0 6) Collect.Query.min_visibility;
           clause
             (oneofl Stream.Monitor.[ Short; Medium; Long ])
             Collect.Query.bucket;
         ]))

let prop_indexes_answer_like_a_scan =
  Testutil.qtest ~count:300 "indexed query = filter over entries"
    QCheck2.Gen.(pair indexed_store_gen (list_size (int_range 1 8) query_gen))
    (fun (es, queries) ->
      let vantages = [ "vp00"; "vp01"; "vp02"; "vp03" ] in
      let built = Store.of_entries ~vantages es in
      let decoded = Store.decode (Store.encode built) in
      List.for_all
        (fun t ->
          List.for_all
            (fun q ->
              let want = List.filter (Collect.Query.matches q) (Store.entries t) in
              List.equal entry_equal (Store.query t q) want
              && Store.count_matching t q = List.length want)
            (Collect.Query.empty :: queries))
        [ built; decoded ])

(* A query that is nothing but a visibility floor or an origin is
   answered by the index array that picked its candidates, with no
   filter run; every query, bare or not, answers like a full scan, and
   its served section is the octets of the scan's entries. *)
let bare_query_gen =
  QCheck2.Gen.(
    oneof
      [
        pure Collect.Query.empty;
        map (fun k -> Collect.Query.(min_visibility k empty)) (int_range 0 6);
        map (fun a -> Collect.Query.(origin (Asn.make a) empty)) (int_range 9 16);
      ])

let prop_select_equals_scan =
  Testutil.qtest ~count:300 "select = full-scan filter, bare clauses included"
    QCheck2.Gen.(
      pair indexed_store_gen (list_size (int_range 1 8) (oneof [ bare_query_gen; query_gen ])))
    (fun (es, queries) ->
      let vantages = [ "vp00"; "vp01"; "vp02"; "vp03" ] in
      let built = Store.of_entries ~vantages es in
      List.for_all
        (fun t ->
          List.for_all
            (fun q ->
              let want = List.filter (Collect.Query.matches q) (Store.entries t) in
              let size, write = Store.section t q in
              let served = Bytes.create size in
              write served 0;
              let scanned = Buffer.create 64 in
              Corr.write_entries scanned want;
              List.equal entry_equal (Store.query t q) want
              && Store.count_matching t q = List.length want
              && Bytes.equal served (Buffer.to_bytes scanned))
            queries)
        [ built; Store.decode (Store.encode built) ])

(* ---------------- the entry reader ---------------- *)

(* The compact layout read with the generic Codec readers, one field
   at a time: the reference for values, failure octets and messages. *)
let ref_read_entry table c =
  let x_prefix = Codec.take_prefix c in
  let fl = Codec.take_u8 c in
  if fl > 31 || (fl land 16 <> 0 && fl land 12 <> 12) then Codec.corrupt c "entry flags %#x" fl;
  let flagged bit = if fl land bit <> 0 then Some (Codec.take_varint c) else None in
  let x_seq = Codec.take_varint c in
  let x_started = Codec.take_varint c in
  let x_ended = flagged 2 in
  let x_days = Codec.take_varint c in
  let x_max_origins = Codec.take_varint c in
  let n = Codec.take_varint c in
  Codec.check_count c ~elt_size:2 n;
  let rec origins set last k =
    if k = 0 then set
    else
      let a = Codec.take_asn c in
      if a <= last then Codec.corrupt c "origin %d out of order at octet %d" a (Codec.pos c - 2);
      origins (Asn.Set.add a set) a (k - 1)
  in
  let x_origins = origins Asn.Set.empty (-1) n in
  let k = Codec.take_varint c in
  Codec.check_count c ~elt_size:1 k;
  let rec names acc k =
    if k = 0 then List.rev acc
    else
      let i = Codec.take_varint c in
      if i >= Array.length table then
        Codec.corrupt c "vantage %d of a table of %d names" i (Array.length table);
      names (table.(i) :: acc) (k - 1)
  in
  let x_seen_by = names [] k in
  let x_first_detect = flagged 4 in
  let x_last_detect =
    if fl land 16 <> 0 then x_first_detect
    else
      let last = flagged 8 in
      if last <> None && last = x_first_detect then
        Codec.corrupt c "last detection repeats the first at octet %d" (Codec.pos c);
      last
  in
  {
    Corr.x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins;
    x_origins;
    x_clean = fl land 1 <> 0;
    x_seen_by;
    x_first_detect;
    x_last_detect;
  }

let ref_read_entries c =
  let table = Array.of_list (Codec.take_list c Codec.take_string) in
  let n = Codec.take_u32 c in
  Codec.check_count c ~elt_size:1 n;
  let rec loop acc k = if k = 0 then List.rev acc else loop (ref_read_entry table c :: acc) (k - 1) in
  loop [] n

exception Bad of string

(* Entries with zero to four names from a small pool (so names and whole
   lists repeat) or made up on the spot, zero, one or many origins, and
   every option present or absent; first and last detection often equal. *)
let decoder_entry_gen =
  let open QCheck2.Gen in
  let name = oneof [ oneofl [ "vp00"; "vp01"; "rv02"; ""; "a-longer-vantage-name" ];
                     string_size ~gen:printable (int_range 0 12) ] in
  let time = oneof [ int_range 0 100; int_range 0 max_int ] in
  map
    (fun ((prefix, seq, started, ended), (days, max_origins, origins, clean), (seen, first, last)) ->
      {
        Corr.x_prefix = prefix;
        x_seq = seq;
        x_started = started;
        x_ended = ended;
        x_days = days;
        x_max_origins = max_origins;
        x_origins = Asn.Set.of_list (List.map Asn.make origins);
        x_clean = clean;
        x_seen_by = seen;
        x_first_detect = first;
        x_last_detect = (match last with `Same -> first | `Other l -> l);
      })
    (triple
       (quad Testutil.prefix_gen time time (opt time))
       (quad time (int_range 0 0xffffffff)
          (oneof [ pure []; map (fun a -> [ a ]) (int_range 0 65535);
                   list_size (int_range 2 6) (int_range 0 65535) ])
          bool)
       (triple (list_size (int_range 0 4) name) (opt time)
          (oneof [ pure `Same; map (fun l -> `Other l) (opt time) ])))

let entries_octets es =
  let buf = Buffer.create 256 in
  Corr.write_entries buf es;
  Buffer.to_bytes buf

(* the entries, or the message and octet the read stops at *)
let decode_outcome read data =
  match read (Codec.cursor ~fail:(fun m -> Bad m) data) with
  | es -> Ok es
  | exception Bad m -> Error m

let lean data = decode_outcome Corr.read_entries data
let reference data = decode_outcome ref_read_entries data

let prop_lean_reader_matches_reference =
  Testutil.qtest ~count:300 "lean reader = generic reader on valid entries"
    QCheck2.Gen.(list_size (int_range 0 150) decoder_entry_gen)
    (fun es ->
      let data = entries_octets es in
      (* structurally equal to the reference (sets of the same shape,
         too), and the entries written *)
      lean data = reference data
      && match lean data with Ok got -> List.equal entry_equal got es | Error _ -> false)

let prop_lean_reader_fails_alike =
  Testutil.qtest ~count:200 "lean reader fails where the generic reader fails"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 100) decoder_entry_gen)
        (list_size (int_range 1 8) (pair nat (int_range 0 255)))
        nat)
    (fun (es, mutations, cut) ->
      let data = entries_octets es in
      let n = Bytes.length data in
      let mutated = Bytes.copy data in
      List.iter (fun (i, v) -> Bytes.set mutated (i mod n) (Char.chr v)) mutations;
      let truncated = Bytes.sub data 0 (cut mod (n + 1)) in
      List.for_all (fun d -> lean d = reference d) [ mutated; truncated ])

(* every truncation of 72 entries, enough for the decode to share, each
   name list met many times *)
let test_lean_reader_every_truncation () =
  let es =
    [
      entry ~prefix:p1 ~origins:[ 10; 20 ] ~started:100 ~ended:900 ~seen:[ "vp00"; "vp02" ]
        ~first:120 ~last:120 ();
      entry ~prefix:p2 ~origins:[ 30 ] ~started:50 ~seen:[ "vp00"; "vp02" ] ~first:50 ~last:60 ();
      entry ~prefix:p2_sub ~origins:[] ~started:400 ~ended:500 ~seen:[] ();
    ]
  in
  let data = entries_octets (List.concat (List.init 24 (fun _ -> es))) in
  for len = 0 to Bytes.length data do
    let d = Bytes.sub data 0 len in
    Alcotest.(check bool) (Printf.sprintf "cut at %d" len) true (lean d = reference d)
  done

(* A file this program would not write, but whose every field is
   valid, decodes to the store of its entries: entries out of canonical
   order or repeating a key, and a name table that names a vantage no
   entry carries or is out of order, are normalised, and the store's
   encoding and replies are those of the decoded entries.  A field that
   breaks the layout's one-encoding rule is Corrupt instead: host bits
   in a prefix, an overlong or oversized varint, origins out of order,
   unknown flags, a vantage index past the table. *)
let test_store_decode_normalises () =
  let e1 = entry ~prefix:p1 ~origins:[ 10; 20 ] ~started:100 ~seen:[ "vp00" ] () in
  let e1' = { e1 with Corr.x_days = 7 } in
  let e2 = entry ~prefix:p2 ~origins:[ 30; 40 ] ~started:50 ~seen:[ "vp00"; "vp00" ] () in
  let vantages = [ "vp00"; "vp01" ] in
  let canonical = raw_store_bytes ~vantages [ e1'; e2 ] in
  List.iter
    (fun (what, data) ->
      let t = Store.decode data in
      Alcotest.(check bool) (what ^ ": canonical encoding") true
        (Bytes.equal (Store.encode t) canonical);
      let server = Serve.Server.create ~store:t () in
      let reply =
        Serve.Server.handle server ~session:(Serve.Server.open_session server)
          (Serve.Proto.encode_request (Serve.Proto.Query Collect.Query.empty))
      in
      Alcotest.(check bool) (what ^ ": reply of the decoded entries") true
        (Bytes.equal reply
           (Serve.Proto.encode_response
              (Serve.Proto.Entries { vantage_count = 2; entries = Store.entries t }))))
    [
      ("canonical", canonical);
      ("out of order", raw_store_bytes ~vantages [ e2; e1' ]);
      ("repeated key", raw_store_bytes ~vantages [ e1; e2; e1' ]);
      ("unused name", raw_store_bytes ~table:[| "vp00"; "vp01"; "vp99" |] ~vantages [ e1'; e2 ]);
      ( "table out of order",
        Codec.Frame.encode moasstor ~kind:1 (fun buf ->
            Codec.put_list buf Codec.put_string vantages;
            Corr.write_names buf [| "vp01"; "vp00" |];
            Codec.put_u32 buf 2;
            (* vp00 is index 1 of this table *)
            let octets e =
              let b = Buffer.create 32 in
              Corr.write_entry [| "vp00"; "vp01" |] b e;
              Buffer.to_bytes b
            in
            List.iter
              (fun e ->
                let o = octets e in
                (* the one-octet indices sit before the absent detections *)
                let k = List.length e.Corr.x_seen_by in
                for j = Bytes.length o - k to Bytes.length o - 1 do
                  Bytes.set o j '\001'
                done;
                Buffer.add_bytes buf o)
              [ e1'; e2 ]) );
    ];
  (* the octets of [e1] under a table of one name: prefix 0-4, flags 5,
     seq 6, start 7, days 8, most origins 9, the origin count 10, the
     origins 11-14, the name count 15 and its index 16 *)
  let octets =
    let b = Buffer.create 32 in
    Corr.write_entry [| "vp00" |] b e1;
    Buffer.contents b
  in
  Alcotest.(check int) "the entry's octets" 17 (String.length octets);
  let file octets =
    Codec.Frame.encode moasstor ~kind:1 (fun buf ->
        Codec.put_list buf Codec.put_string [ "vp00" ];
        Corr.write_names buf [| "vp00" |];
        Codec.put_u32 buf 1;
        Buffer.add_string buf octets)
  in
  let splice at len by = String.sub octets 0 at ^ by ^ String.sub octets (at + len) (17 - at - len) in
  ignore (Store.decode (file octets));
  List.iter
    (fun (what, octets, msg) ->
      match Store.decode (file octets) with
      | _ -> Alcotest.failf "%s: decoded" what
      | exception Store.Corrupt m -> Testutil.check_contains ~what m msg)
    [
      ("host bits", splice 3 1 "\001", "host bits");
      ("overlong varint", splice 6 1 "\x81\x00", "overlong varint");
      ("varint past 62 bits", splice 6 1 "\xff\xff\xff\xff\xff\xff\xff\xff\x40", "exceeds 62 bits");
      ("origins out of order", splice 11 4 "\000\020\000\010", "out of order");
      ("unknown flag", splice 5 1 (String.make 1 (Char.chr (Char.code octets.[5] lor 0x20))), "entry flags");
      ("index past the table", splice 16 1 "\001", "of a table of 1 names");
    ]

(* The store keeps no octet of the caller's bytes: scribbling over them
   after the decode changes neither the store's encoding nor a reply. *)
let test_store_decode_copies () =
  let bytes = Store.encode (sample_store ()) in
  let original = Bytes.copy bytes in
  let t = Store.decode bytes in
  let reply () =
    let server = Serve.Server.create ~store:t () in
    Serve.Server.handle server ~session:(Serve.Server.open_session server)
      (Serve.Proto.encode_request (Serve.Proto.Query Collect.Query.empty))
  in
  let before = reply () in
  Bytes.fill bytes 0 (Bytes.length bytes) '\xff';
  Alcotest.(check bool) "encode unchanged" true (Bytes.equal (Store.encode t) original);
  Alcotest.(check bool) "reply unchanged" true (Bytes.equal (reply ()) before)

let test_store_roundtrip () =
  let s = sample_store () in
  let bytes = Store.encode s in
  let s' = Store.decode bytes in
  Alcotest.(check int) "count survives" (Store.count s) (Store.count s');
  Alcotest.(check (list string)) "roster survives" (Store.vantages s)
    (Store.vantages s');
  Alcotest.(check bool) "re-encode is byte-identical" true
    (Store.encode s' = bytes);
  Alcotest.(check string) "render survives" (Store.render s) (Store.render s')

let test_store_rejects_corruption () =
  let bytes = Store.encode (sample_store ()) in
  let expect_corrupt what data =
    match Store.decode data with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Store.Corrupt _ -> ()
  in
  (* truncation at every cut point *)
  for n = 0 to Bytes.length bytes - 1 do
    expect_corrupt (Printf.sprintf "truncation to %d octets" n)
      (Bytes.sub bytes 0 n)
  done;
  (* trailing garbage *)
  expect_corrupt "trailing octet" (Bytes.cat bytes (Bytes.make 1 '\x00'));
  (* bad magic *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 0 'X';
  expect_corrupt "bad magic" bad;
  (* the version before this one, and the one after *)
  List.iter
    (fun v ->
      let bad = Bytes.copy bytes in
      Bytes.set bad 8 (Char.chr v);
      expect_corrupt (Printf.sprintf "version %d" v) bad;
      match Store.decode bad with
      | _ -> ()
      | exception Store.Corrupt m ->
        Testutil.check_contains ~what:"version message" m
          (Printf.sprintf "MOASSTOR version %d is not supported" v))
    [ 1; 3 ]

let test_store_queries () =
  let s = sample_store () in
  let q qstr =
    match Collect.Query.parse qstr with
    | Ok q -> List.map (fun e -> Prefix.to_string e.Corr.x_prefix) (Store.query s q)
    | Error msg -> Alcotest.failf "query %S rejected: %s" qstr msg
  in
  Alcotest.(check (list string)) "exact prefix"
    [ "198.51.100.0/24" ]
    (q "prefix=198.51.100.0/24");
  Alcotest.(check (list string)) "covered includes more-specifics"
    [ "198.51.100.0/24"; "198.51.100.128/25" ]
    (q "prefix=198.51.100.0/24,covered=true");
  Alcotest.(check (list string)) "origin filter"
    [ "192.0.2.0/24" ] (q "origin=20");
  Alcotest.(check (list string)) "time range excludes later episodes"
    [ "192.0.2.0/24"; "198.51.100.0/24" ]
    (q "since=60,until=150");
  Alcotest.(check (list string)) "open episodes extend to the end of time"
    [ "198.51.100.0/24" ] (q "since=5000");
  Alcotest.(check (list string)) "visibility floor"
    [ "198.51.100.0/24" ] (q "min_visibility=3");
  Alcotest.(check int) "empty query matches all" 3 (List.length (q ""));
  (* every sample episode lasts a single day, so they are all short *)
  Alcotest.(check int) "bucket=short matches the day-long episodes" 3
    (List.length (q "bucket=short"));
  Alcotest.(check (list string)) "bucket=long matches none" []
    (q "bucket=long");
  match Collect.Query.parse "bucket=medium" with
  | Error m -> Alcotest.failf "bucket=medium rejected: %s" m
  | Ok qm ->
    Alcotest.(check string) "printer restores the bucket clause"
      "bucket=medium"
      (Collect.Query.to_string qm)

let test_store_parse_errors () =
  let rejected s =
    match Collect.Query.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown key" true (rejected "frobnicate=1");
  Alcotest.(check bool) "missing value" true (rejected "prefix");
  Alcotest.(check bool) "bad integer" true (rejected "since=soon");
  Alcotest.(check bool) "bad prefix" true (rejected "prefix=999.0.0.0/44");
  Alcotest.(check bool) "bad bucket" true (rejected "bucket=forever")

(* ---------------- scenario: partial visibility under partition -------- *)

let topo = lazy (Topology.Paper_topologies.topology_25 ())

let baseline =
  lazy (Collect.Scenario.capture ~seed:1L ~vantages:3 (Lazy.force topo))

let partitioned =
  lazy
    (Collect.Scenario.capture ~arm:Collect.Scenario.Partitioned ~seed:1L
       ~vantages:3 (Lazy.force topo))

let correlate capture =
  Corr.of_result (Mesh.run config capture.Collect.Scenario.s_streams)

let find_entries corr prefix =
  List.filter
    (fun e -> Prefix.compare e.Corr.x_prefix prefix = 0)
    corr.Corr.c_entries

let test_scenario_baseline () =
  let c = Lazy.force baseline in
  Alcotest.(check int) "three vantages" 3 (List.length c.Collect.Scenario.s_streams);
  let corr = correlate c in
  let attacked = find_entries corr c.Collect.Scenario.s_attacked in
  Alcotest.(check bool) "invalid-origin conflict observed" true (attacked <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "flagged by the MOAS-list check" false e.Corr.x_clean;
      Alcotest.(check bool) "visible somewhere" true (Corr.visibility e >= 1))
    attacked;
  (match find_entries corr c.Collect.Scenario.s_multihomed with
  | [] -> Alcotest.fail "multihomed MOAS not observed"
  | entries ->
    List.iter
      (fun e ->
        Alcotest.(check bool) "clean legitimate MOAS" true e.Corr.x_clean;
        Alcotest.(check int) "seen by the whole mesh" 3 (Corr.visibility e))
      entries);
  Alcotest.(check (list string)) "quiet prefix never conflicts" []
    (List.map (fun e -> Prefix.to_string e.Corr.x_prefix)
       (find_entries corr c.Collect.Scenario.s_quiet))

let test_scenario_partition () =
  let healthy = Lazy.force baseline and cut = Lazy.force partitioned in
  Alcotest.(check (option string)) "first vantage is isolated" (Some "vp00")
    cut.Collect.Scenario.s_isolated;
  Alcotest.(check bool) "the partition actually fired" true
    (cut.Collect.Scenario.s_faults_injected > 0);
  let mesh c = Mesh.run config c.Collect.Scenario.s_streams in
  let view r = encode_snapshot (List.assoc "vp00" r.Mesh.r_per_vantage) in
  Alcotest.(check bool) "isolated vantage's view diverges" true
    (view (mesh healthy) <> view (mesh cut));
  let corr = correlate cut in
  let attacked = find_entries corr cut.Collect.Scenario.s_attacked in
  Alcotest.(check bool) "merged correlator still flags the conflict" true
    (List.exists (fun e -> not e.Corr.x_clean) attacked);
  Alcotest.(check bool) "visibility is partial, not zero" true
    (List.exists
       (fun e -> Corr.visibility e >= 1 && Corr.visibility e < 3)
       attacked)

let fault_churn =
  lazy
    (Collect.Scenario.capture ~arm:Collect.Scenario.Fault_churn ~seed:1L
       ~vantages:3 (Lazy.force topo))

let test_scenario_fault_churn () =
  let c = Lazy.force fault_churn in
  Alcotest.(check bool) "the flaps actually fired" true
    (c.Collect.Scenario.s_faults_injected > 0);
  let corr = correlate c in
  Alcotest.(check (list string)) "no attacker, so no conflict there" []
    (List.map
       (fun e -> Prefix.to_string e.Corr.x_prefix)
       (find_entries corr c.Collect.Scenario.s_attacked));
  (match find_entries corr c.Collect.Scenario.s_multihomed with
  | [] -> Alcotest.fail "unlisted multihomed MOAS not observed"
  | entries ->
    List.iter
      (fun e ->
        Alcotest.(check bool)
          "unlisted multihoming false-alarms the MOAS-list check" false
          e.Corr.x_clean;
        Alcotest.(check Testutil.asn_set_testable)
          "origins are exactly the homes" c.Collect.Scenario.s_homes
          e.Corr.x_origins)
      entries;
    Alcotest.(check bool) "flaps make the episode recur" true
      (List.exists (fun e -> e.Corr.x_seq > 1) entries))

let test_scenario_determinism () =
  let c = Lazy.force baseline in
  let report r = Stream.Report.render r.Mesh.r_merged in
  let a = Mesh.run ~jobs:1 config c.Collect.Scenario.s_streams in
  let b = Mesh.run ~jobs:4 config (List.rev c.Collect.Scenario.s_streams) in
  Alcotest.(check string) "merged report is byte-identical" (report a) (report b)

let () =
  Alcotest.run "collect"
    [
      ( "vantage",
        [
          Alcotest.test_case "tap records origin events" `Quick
            test_tap_records_origin_events;
          Alcotest.test_case "attach validation" `Quick test_attach_validation;
          Alcotest.test_case "dropped-update counter" `Quick test_dropped_counter;
          Alcotest.test_case "millis" `Quick test_millis;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "merge dedups the union" `Quick test_merge_dedup;
          Alcotest.test_case "canonical event order" `Quick test_canonical_order;
          Alcotest.test_case "run validation" `Quick test_run_validation;
          Alcotest.test_case "flagged while open" `Quick test_flagged_while_open;
          Alcotest.test_case "duplicates counter is lazy" `Quick
            test_duplicates_counter_lazy;
        ] );
      ( "properties",
        [
          prop_merged_equals_global;
          prop_full_coverage_vantages_agree;
          prop_jobs_and_order_invariance;
          prop_heap_merge_matches_reference;
          prop_correlator_matches_reference;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_store_rejects_corruption;
          Alcotest.test_case "queries" `Quick test_store_queries;
          Alcotest.test_case "query parse errors" `Quick test_store_parse_errors;
          Alcotest.test_case "decode of 20k same-prefix entries" `Quick
            test_store_decode_one_prefix;
          prop_bulk_store_matches_add;
          prop_indexes_answer_like_a_scan;
          prop_select_equals_scan;
        ] );
      ( "decoder",
        [
          prop_lean_reader_matches_reference;
          prop_lean_reader_fails_alike;
          Alcotest.test_case "every truncation" `Quick test_lean_reader_every_truncation;
          Alcotest.test_case "store decode copies its input" `Quick test_store_decode_copies;
          Alcotest.test_case "store decode normalises" `Quick test_store_decode_normalises;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "baseline visibility" `Quick test_scenario_baseline;
          Alcotest.test_case "partition keeps detection" `Quick
            test_scenario_partition;
          Alcotest.test_case "fault-churn arm false-alarms the list check"
            `Quick test_scenario_fault_churn;
          Alcotest.test_case "jobs/order determinism" `Quick
            test_scenario_determinism;
        ] );
    ]
