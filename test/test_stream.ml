(* Tests for lib/stream: online monitor state machine, episode lifecycle,
   MOAS-list validation at settle points, sharded ingest determinism,
   checkpoint/restore, and agreement with the naive reference model
   (test/util/reference.ml) on random streams and on the synthetic
   archive. *)

open Net
module M = Stream.Monitor
module Sh = Stream.Sharded
module Ck = Stream.Checkpoint
module Src = Stream.Source
module Rp = Stream.Report
module Srv = Measurement.Synthetic_routeviews
module Ref = Testutil.Reference

let p1 = Prefix.of_string "192.0.2.0/24"
let day = M.default_config.M.day_seconds

let ev ?(peer = 99) ~time prefix action =
  { M.time; peer = Asn.make peer; prefix; action }

let ann ?list o =
  M.Announce { origin = Asn.make o; moas_list = Option.map Asn.Set.of_list list }

let wd o = M.Withdraw { origin = Asn.make o }

let annotate = Src.fault_annotator

(* ---------------- episode lifecycle ---------------- *)

let test_lifecycle () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10; 20 ] 10));
  Alcotest.(check int) "single origin, no episode" 0 (M.open_count m);
  M.ingest m (ev ~time:10 p1 (ann ~list:[ 10; 20 ] 20));
  Alcotest.(check int) "episode opens on second origin" 1 (M.open_count m);
  M.mark_day m ~time:day;
  M.ingest m (ev ~time:(day + 100) p1 (wd 20));
  Alcotest.(check int) "episode closes on withdrawal" 0 (M.open_count m);
  let sn = M.snapshot m in
  (match sn.M.s_closed with
  | [ e ] ->
    Alcotest.(check int) "one conflicted day" 1 e.M.e_days;
    Alcotest.(check int) "first episode of the prefix" 1 e.M.e_seq;
    Alcotest.(check int) "started when the set grew" 10 e.M.e_started;
    Alcotest.(check int) "ended at the withdrawal" (day + 100) e.M.e_ended;
    Alcotest.(check int) "largest origin set" 2 e.M.e_max_origins;
    Alcotest.(check bool) "validated by consistent lists" true e.M.e_clean;
    Alcotest.check Testutil.asn_set_testable "origins ever"
      (Asn.Set.of_list [ 10; 20 ])
      e.M.e_origins_ever
  | eps -> Alcotest.failf "expected 1 closed episode, got %d" (List.length eps));
  let c = sn.M.s_counters in
  Alcotest.(check int) "updates" 3 c.M.c_updates;
  Alcotest.(check int) "announces" 2 c.M.c_announces;
  Alcotest.(check int) "withdraws" 1 c.M.c_withdraws;
  Alcotest.(check int) "opened" 1 c.M.c_opened;
  Alcotest.(check int) "closed" 1 c.M.c_closed;
  Alcotest.(check int) "no alerts: lists agreed" 0 c.M.c_alerts;
  Alcotest.(check int) "days observed" 1 c.M.c_days

let test_validation_flags () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10; 20 ] 10));
  M.ingest m (ev ~time:1 p1 (ann 20));
  (* the conflict exists but validation waits for the settle point *)
  Alcotest.(check int) "open before settle" 1 (M.open_count m);
  let before = (M.snapshot m).M.s_counters.M.c_alerts in
  Alcotest.(check int) "no alert before settle" 0 before;
  M.settle m ~time:2;
  let sn = M.snapshot m in
  Alcotest.(check int) "one alert after settle" 1 sn.M.s_counters.M.c_alerts;
  (match sn.M.s_prefixes with
  | [ p ] ->
    (match p.M.p_open with
    | Some o -> Alcotest.(check bool) "episode flagged" false o.M.o_clean
    | None -> Alcotest.fail "episode vanished")
  | _ -> Alcotest.fail "expected one prefix state");
  (* a flagged episode never alerts twice *)
  M.ingest m (ev ~time:3 p1 (ann 30));
  M.settle m ~time:4;
  Alcotest.(check int) "still one alert" 1
    (M.snapshot m).M.s_counters.M.c_alerts

let test_recurrence () =
  let m = M.create M.default_config in
  let conflict t =
    M.ingest m (ev ~time:t p1 (ann ~list:[ 10; 20 ] 10));
    M.ingest m (ev ~time:(t + 1) p1 (ann ~list:[ 10; 20 ] 20));
    M.mark_day m ~time:(t + day);
    M.ingest m (ev ~time:(t + day + 1) p1 (wd 20))
  in
  conflict 0;
  conflict (10 * day);
  let sn = M.snapshot m in
  Alcotest.(check (list int)) "recurrence indices" [ 1; 2 ]
    (List.map (fun e -> e.M.e_seq) sn.M.s_closed);
  (match sn.M.s_prefixes with
  | [ p ] -> Alcotest.(check int) "closed count" 2 p.M.p_closed_count
  | _ -> Alcotest.fail "expected one prefix state");
  Testutil.check_contains ~what:"report" (Rp.render sn)
    "1 prefixes conflicted more than once"

let test_origins_validated () =
  let map entries =
    List.fold_left
      (fun acc (o, l) ->
        Asn.Map.add (Asn.make o) (Option.map Asn.Set.of_list l) acc)
      Asn.Map.empty entries
  in
  let check name expected entries =
    Alcotest.(check bool) name expected (M.origins_validated (map entries))
  in
  check "no origins" true [];
  check "single origin, no list" true [ (10, None) ];
  check "consistent covering lists" true
    [ (10, Some [ 10; 20 ]); (20, Some [ 10; 20 ]) ];
  check "superset lists still cover" true
    [ (10, Some [ 10; 20; 30 ]); (20, Some [ 10; 20; 30 ]) ];
  check "one origin without a list" false
    [ (10, Some [ 10; 20 ]); (20, None) ];
  check "disagreeing lists" false
    [ (10, Some [ 10; 20 ]); (20, Some [ 10; 30 ]) ];
  check "agreed list missing an origin" false
    [ (10, Some [ 10 ]); (20, Some [ 10 ]) ]

let test_windows () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:100 p1 (ann 10));
  M.ingest m (ev ~time:200 p1 (ann 20));
  M.settle m ~time:300;
  M.ingest m (ev ~time:((5 * day) + 1) p1 (wd 20));
  let sn = M.snapshot m in
  Alcotest.(check (list int)) "window indices" [ 0; 5 ]
    (List.map fst sn.M.s_windows);
  let sum f =
    List.fold_left (fun acc (_, w) -> acc + f w) 0 sn.M.s_windows
  in
  let c = sn.M.s_counters in
  Alcotest.(check int) "updates windowed" c.M.c_updates (sum (fun w -> w.M.w_updates));
  Alcotest.(check int) "opens windowed" c.M.c_opened (sum (fun w -> w.M.w_opened));
  Alcotest.(check int) "closes windowed" c.M.c_closed (sum (fun w -> w.M.w_closed));
  Alcotest.(check int) "alerts windowed" c.M.c_alerts (sum (fun w -> w.M.w_alerts))

let test_config_validation () =
  List.iter
    (fun (name, cfg) ->
      match M.create cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ("zero window", { M.default_config with M.window = 0 });
      ( "inverted buckets",
        { M.default_config with M.short_max_days = 9; medium_max_days = 3 } );
      ("zero day", { M.default_config with M.day_seconds = 0 });
    ]

(* ---------------- the archive as a stream ---------------- *)

let archive_monitor ?metrics ~jobs () =
  let t = Sh.create ?metrics ~jobs M.default_config in
  Array.iter
    (fun b -> Sh.ingest_batch ~day_end:true t ~time:b.Src.time b.Src.events)
    (Src.archive_batches ~annotate Srv.smoke_params);
  t

let test_sharding_invariance () =
  let r1 = Rp.render (Sh.snapshot (archive_monitor ~jobs:1 ())) in
  let r4 = Rp.render (Sh.snapshot (archive_monitor ~jobs:4 ())) in
  Alcotest.(check string) "reports identical at jobs 1 and 4" r1 r4

let test_alerts_spike_on_fault_days () =
  let sn = Sh.snapshot (archive_monitor ~jobs:2 ()) in
  let alert_days =
    List.filter_map
      (fun (i, w) -> if w.M.w_alerts > 0 then Some i else None)
      sn.M.s_windows
  in
  Alcotest.(check (list int)) "alerts exactly on the fault days"
    [ Srv.event_1998; Srv.event_2001 ]
    alert_days;
  let alerts_on d =
    match List.assoc_opt d sn.M.s_windows with
    | Some w -> w.M.w_alerts
    | None -> 0
  in
  Alcotest.(check int) "1998 event size" Srv.smoke_params.Srv.event_1998_size
    (alerts_on Srv.event_1998);
  Alcotest.(check int) "2001 event size" Srv.smoke_params.Srv.event_2001_size
    (alerts_on Srv.event_2001)

let test_metrics_flow () =
  let metrics = Obs.Registry.create () in
  let t = archive_monitor ~metrics ~jobs:2 () in
  let merged = Sh.metrics t in
  let v name = Obs.Registry.counter_value merged name in
  Alcotest.(check int) "updates counter" (Sh.update_count t)
    (v "stream_updates_total");
  Alcotest.(check int) "announce + withdraw split" (Sh.update_count t)
    (v "stream_announces_total" + v "stream_withdraws_total");
  Alcotest.(check int) "days counter" (Sh.day_count t) (v "stream_days_total");
  Alcotest.(check int) "batches counter" (Sh.day_count t)
    (v "stream_batches_total");
  let sn = Sh.snapshot t in
  Alcotest.(check int) "opened counter" sn.M.s_counters.M.c_opened
    (v "stream_episodes_opened_total");
  Alcotest.(check int) "alerts counter" sn.M.s_counters.M.c_alerts
    (v "stream_alerts_total")

(* ---------------- checkpoint/restore ---------------- *)

let test_checkpoint_roundtrip () =
  let sn = Sh.snapshot (archive_monitor ~jobs:2 ()) in
  let bytes = Ck.encode sn in
  let sn2 = Ck.decode bytes in
  Alcotest.(check string) "render survives the roundtrip" (Rp.render sn)
    (Rp.render sn2);
  Alcotest.(check bool) "re-encoding is byte-identical" true
    (Bytes.equal bytes (Ck.encode sn2))

let test_checkpoint_empty () =
  let sn = M.empty_snapshot M.default_config in
  Alcotest.(check string) "empty snapshot roundtrips"
    (Rp.render sn)
    (Rp.render (Ck.decode (Ck.encode sn)))

let test_checkpoint_rejects_corruption () =
  let bytes = Ck.encode (Sh.snapshot (archive_monitor ~jobs:1 ())) in
  let expect name b =
    match Ck.decode b with
    | exception Ck.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect "truncated" (Bytes.sub bytes 0 (Bytes.length bytes - 3));
  expect "trailing octets" (Bytes.cat bytes (Bytes.make 1 '\x00'));
  let bad_magic = Bytes.copy bytes in
  Bytes.set bad_magic 0 'X';
  expect "bad magic" bad_magic;
  let bad_version = Bytes.copy bytes in
  Bytes.set bad_version 8 '\x09';
  expect "unknown version" bad_version;
  expect "empty" Bytes.empty

(* A checkpoint of [n] conflicted prefixes, each with two origins and an
   open episode. *)
let wide_snapshot n =
  let m = M.create M.default_config in
  for i = 0 to n - 1 do
    let prefix = Prefix.make (Ipv4.of_int (i lsl 8)) 24 in
    M.ingest m (ev ~time:0 prefix (ann ~list:[ 10; 20 ] 10));
    M.ingest m (ev ~time:0 prefix (ann ~list:[ 10; 20 ] 20))
  done;
  M.mark_day m ~time:day;
  M.snapshot m

(* MOASSTRM on adversarial sizes: a count the remaining octets cannot
   hold (in a frame resealed around it, so the checksum passes) is
   refused before anything is read, and ten times the prefixes
   may cost about ten times the decode, far from the hundred a quadratic
   path would. *)
let test_checkpoint_adversarial_sizes () =
  let snap = wide_snapshot 1 in
  let bytes = Ck.encode snap in
  (* the three list counts end an empty snapshot's encoding *)
  let bare = { snap with M.s_prefixes = []; s_closed = []; s_windows = [] } in
  let prefix_count_at = Bytes.length (Ck.encode bare) - 12 in
  (* the open episode's origin set follows the prefix (5), the origin
     count (4), two origins with their lists (11 each), the option tag
     (1), seq, start and days (8 each) and max origins (4) *)
  let origin_count_at = prefix_count_at + 4 + 5 + 4 + (2 * 11) + 1 + 24 + 4 in
  List.iter
    (fun (what, at, expected) ->
      Alcotest.(check int32) (what ^ " sits where the test looks")
        expected (Bytes.get_int32_be bytes at);
      let lie = Bytes.copy bytes in
      Bytes.set_int32_be lie at 0xFFFFFFFFl;
      Testutil.reseal lie;
      match Ck.decode lie with
      | exception Ck.Corrupt msg ->
        Testutil.check_contains ~what msg "exceeds"
      | _ -> Alcotest.failf "%s of 0xFFFFFFFF accepted" what)
    [
      ("prefix-state count", prefix_count_at, 1l);
      ("origin-set count", origin_count_at, 2l);
    ];
  let small = Ck.encode (wide_snapshot 2_000) in
  let large = Ck.encode (wide_snapshot 20_000) in
  Alcotest.(check int) "every prefix decoded" 20_000
    (List.length (Ck.decode large).M.s_prefixes);
  let ratio =
    Testutil.best_of_five (fun () -> Ck.decode large)
    /. Testutil.best_of_five (fun () -> Ck.decode small)
  in
  if ratio > 40. then Alcotest.failf "10x the prefixes took %.0fx the decode" ratio

let test_checkpoint_restore_converges () =
  (* checkpoint mid-stream at one job count, restore at another, replay
     the rest: the final report equals the uninterrupted run's *)
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let split = Array.length batches / 2 in
  let t = Sh.create ~jobs:2 M.default_config in
  Array.iteri
    (fun i b ->
      if i < split then
        Sh.ingest_batch ~day_end:true t ~time:b.Src.time b.Src.events)
    batches;
  let bytes = Ck.encode (Sh.snapshot t) in
  let snap = Ck.decode bytes in
  let resumed = Sh.of_snapshot ~jobs:3 snap in
  Array.iter
    (fun b ->
      if b.Src.time > snap.M.s_last_time then
        Sh.ingest_batch ~day_end:true resumed ~time:b.Src.time b.Src.events)
    batches;
  let uninterrupted = Rp.render (Sh.snapshot (archive_monitor ~jobs:1 ())) in
  Alcotest.(check string) "resumed run converges" uninterrupted
    (Rp.render (Sh.snapshot resumed))

let test_restore_recredits_metrics () =
  let sn = Sh.snapshot (archive_monitor ~jobs:2 ()) in
  let metrics = Obs.Registry.create () in
  let restored = Sh.of_snapshot ~metrics ~jobs:2 sn in
  Alcotest.(check int) "restored update counter"
    sn.M.s_counters.M.c_updates
    (Obs.Registry.counter_value (Sh.metrics restored) "stream_updates_total")

(* ---------------- other sources ---------------- *)

let test_of_mrt () =
  let records =
    [
      {
        Measurement.Mrt.timestamp = 100;
        peer_as = Asn.make 4;
        prefix = p1;
        as_path = Bgp.As_path.of_list [ 4; 7 ];
      };
      {
        Measurement.Mrt.timestamp = 200;
        peer_as = Asn.make 5;
        prefix = p1;
        as_path = Bgp.As_path.of_list [ 5 ];
      };
    ]
  in
  let batch = Src.of_mrt (Measurement.Mrt.encode_records records) in
  Alcotest.(check int) "batch time = latest record" 200 batch.Src.time;
  Alcotest.(check int) "one event per record" 2 (Array.length batch.Src.events);
  match batch.Src.events.(0).M.action with
  | M.Announce { origin; _ } ->
    Alcotest.(check int) "origin = path tail" 7 (Asn.to_int origin)
  | M.Withdraw _ -> Alcotest.fail "MRT records are announcements"

let test_of_wire () =
  let message =
    {
      Bgp.Wire.withdrawn = [ Prefix.of_string "10.0.0.0/8" ];
      attributes =
        Some
          {
            Bgp.Wire.origin = Bgp.Route.Igp;
            as_path = Bgp.As_path.of_list [ 9; 4 ];
            local_pref = 100;
            communities = Moas.Moas_list.encode (Asn.Set.of_list [ 4; 226 ]);
          };
      nlri = [ p1 ];
    }
  in
  let events = Src.of_wire ~time:7 ~peer:(Asn.make 9) message in
  Alcotest.(check int) "withdraw + announce" 2 (Array.length events);
  (match events.(0).M.action with
  | M.Withdraw { origin } ->
    Alcotest.(check int) "withdraw attributed to the peer" 9 (Asn.to_int origin)
  | M.Announce _ -> Alcotest.fail "withdrawals come first");
  match events.(1).M.action with
  | M.Announce { origin; moas_list } ->
    Alcotest.(check int) "origin from the path tail" 4 (Asn.to_int origin);
    Alcotest.check
      (Alcotest.option Testutil.asn_set_testable)
      "MOAS list decoded from communities"
      (Some (Asn.Set.of_list [ 4; 226 ]))
      moas_list
  | M.Withdraw _ -> Alcotest.fail "announcement lost"

(* ---------------- the uniform pull interface ---------------- *)

let batch_signature b =
  ( b.Src.time,
    Option.map Mutil.Day.to_string b.Src.day,
    Array.map (fun e -> (e.M.time, Prefix.to_string e.M.prefix)) b.Src.events )

let test_source_pull_equals_fold () =
  (* draining the pull source yields exactly the fold_archive batches *)
  let folded =
    List.rev
      (Src.fold_archive ~annotate Srv.smoke_params ~init:[] ~f:(fun acc b ->
           b :: acc))
  in
  let s = Src.of_archive ~annotate Srv.smoke_params in
  let pulled = List.rev (Src.fold s ~init:[] ~f:(fun acc b -> b :: acc)) in
  Alcotest.(check int) "same batch count" (List.length folded)
    (List.length pulled);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same batch" true
        (batch_signature a = batch_signature b))
    folded pulled;
  Alcotest.(check bool) "exhausted after fold" true (Src.next s = None)

(* The archive source before it became delta-native, kept as the
   reference: diff consecutive dump_seq tables through a Prefix.Map. *)
let reference_day_events ~annotate ~prev (dump : Testutil.day_dump) =
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let time = dump.Testutil.day * Src.day_seconds in
  let today =
    List.fold_left (fun m (p, o) -> Prefix.Map.add p o m) Prefix.Map.empty dump.Testutil.table
  in
  List.iter
    (fun (prefix, origins) ->
      let prev_origins =
        Option.value ~default:Asn.Set.empty (Prefix.Map.find_opt prefix prev)
      in
      if not (Asn.Set.equal origins prev_origins) then begin
        Asn.Set.iter
          (fun origin -> emit (ev ~peer:(Asn.to_int origin) ~time prefix (M.Withdraw { origin })))
          (Asn.Set.diff prev_origins origins);
        Asn.Set.iter
          (fun origin ->
            emit
              (ev ~peer:(Asn.to_int origin) ~time prefix
                 (M.Announce { origin; moas_list = annotate prefix origins origin })))
          origins
      end)
    dump.Testutil.table;
  Prefix.Map.iter
    (fun prefix prev_origins ->
      if not (Prefix.Map.mem prefix today) then
        Asn.Set.iter
          (fun origin -> emit (ev ~peer:(Asn.to_int origin) ~time prefix (M.Withdraw { origin })))
          prev_origins)
    prev;
  (Array.of_list (List.rev !events), today)

let reference_archive_batches ~annotate params =
  let _, rev =
    Testutil.fold_dumps params ~init:(Prefix.Map.empty, []) ~f:(fun (prev, acc) dump ->
        let events, today = reference_day_events ~annotate ~prev dump in
        (today, { Src.time = dump.Testutil.day * Src.day_seconds; day = Some dump.Testutil.day; events } :: acc))
  in
  List.rev rev

let action_equal a b =
  match (a, b) with
  | M.Withdraw { origin = o1 }, M.Withdraw { origin = o2 } -> Asn.equal o1 o2
  | M.Announce { origin = o1; moas_list = l1 }, M.Announce { origin = o2; moas_list = l2 } ->
    Asn.equal o1 o2 && Option.equal Asn.Set.equal l1 l2
  | _ -> false

let event_equal (a : M.event) (b : M.event) =
  a.M.time = b.M.time && Asn.equal a.M.peer b.M.peer && Prefix.equal a.M.prefix b.M.prefix
  && action_equal a.M.action b.M.action

let batch_equal (a : Src.batch) (b : Src.batch) =
  a.Src.time = b.Src.time
  && Option.equal Int.equal a.Src.day b.Src.day
  && Array.length a.Src.events = Array.length b.Src.events
  && Array.for_all2 event_equal a.Src.events b.Src.events

(* Every table of the smoke archive, one line per row, digested.  The
   digest was taken from the table generator that predates the delta
   source, so it pins the tables the Section 3 analysis reads. *)
let test_dump_tables_unchanged () =
  let buf = Buffer.create 4096 in
  let days =
    Testutil.fold_dumps Srv.smoke_params ~init:0 ~f:(fun n d ->
        Buffer.add_string buf (Mutil.Day.to_string d.Testutil.day);
        List.iter
          (fun (prefix, origins) ->
            Buffer.add_string buf (Prefix.to_string prefix);
            Asn.Set.iter
              (fun a ->
                Buffer.add_char buf ' ';
                Buffer.add_string buf (Asn.to_string a))
              origins;
            Buffer.add_char buf '\n')
          d.Testutil.table;
        n + 1)
  in
  Alcotest.(check int) "observed days" 1279 days;
  Alcotest.(check string) "table digest" "a4fa94ff146d3ff76444d09c22427fe9"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let render_case (c : Rp.case) =
  Printf.sprintf "%s days=%d max=%d {%s}" (Prefix.to_string c.Rp.c_prefix) c.Rp.c_days
    c.Rp.c_max_origins
    (String.concat "," (List.map Asn.to_string (Asn.Set.elements c.Rp.c_origins)))

(* The sharded monitor over the delta source, the Section 3 report, and
   the reference fed by the table differ must agree on every conflicted
   prefix's days and origins, and on the daily count that the dumps show
   directly. *)
let test_archive_agrees_with_reference () =
  let sn = Sh.snapshot (archive_monitor ~jobs:3 ()) in
  let r = Ref.of_batches (reference_archive_batches ~annotate Srv.smoke_params) in
  let s3 = Rp.section3 (Src.of_archive ~annotate Srv.smoke_params) in
  let dumped =
    List.rev
      (Testutil.fold_dumps Srv.smoke_params ~init:[] ~f:(fun acc d ->
           let multi = List.filter (fun (_, o) -> Asn.Set.cardinal o > 1) d.Testutil.table in
           (d.Testutil.day, List.length multi) :: acc))
  in
  Alcotest.(check int) "observed days" (List.length dumped) sn.M.s_counters.M.c_days;
  Alcotest.(check (list (pair int int))) "Figure 4 series" dumped s3.Rp.daily_counts;
  Alcotest.(check (list int)) "reference daily counts" (List.map snd dumped)
    (Ref.daily_open_counts r);
  let want = List.map render_case (Ref.cases r) in
  Alcotest.(check int) "smoke archive cases" 382 (List.length want);
  Alcotest.(check (list string)) "sharded monitor cases" want
    (List.map render_case (Rp.cases sn));
  Alcotest.(check (list string)) "Section 3 cases" want (List.map render_case s3.Rp.cases)

let test_archive_equals_table_differ () =
  let got = Src.archive_batches ~annotate Srv.smoke_params in
  let want = reference_archive_batches ~annotate Srv.smoke_params in
  Alcotest.(check int) "same batch count" (List.length want) (Array.length got);
  Alcotest.(check bool) "same batches" true (List.for_all2 batch_equal want (Array.to_list got))

let test_source_close_is_final () =
  let s = Src.of_batches (Src.archive_batches ~annotate Srv.smoke_params) in
  Alcotest.(check bool) "first pull succeeds" true (Src.next s <> None);
  Src.close s;
  Src.close s;
  Alcotest.(check bool) "closed source yields nothing" true (Src.next s = None)

let test_ingest_source_equals_batch_loop () =
  (* the single ingestion entry point converges with the manual loop,
     including when the drain is split by max_batches *)
  let t = Sh.create ~jobs:2 M.default_config in
  let s = Src.of_archive ~annotate Srv.smoke_params in
  let first = Sh.ingest_source ~max_batches:3 t s in
  Alcotest.(check int) "max_batches honoured" 3 first;
  let rest = Sh.ingest_source t s in
  Alcotest.(check int) "the whole archive ingested" (Sh.day_count t)
    (first + rest);
  Alcotest.(check string) "converges with the batch loop"
    (Rp.render (Sh.snapshot (archive_monitor ~jobs:2 ())))
    (Rp.render (Sh.snapshot t))

let test_ingest_source_since_skips () =
  (* resume semantics: batches at or before `since` are skipped, matching
     what a checkpoint restore needs *)
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let split_time = batches.(Array.length batches / 2).Src.time in
  let t = Sh.create ~jobs:1 M.default_config in
  let skipped =
    Sh.ingest_source ~since:split_time t (Src.of_batches batches)
  in
  let expected =
    Array.length (Array.of_list (List.filter (fun b -> b.Src.time > split_time) (Array.to_list batches)))
  in
  Alcotest.(check int) "only later batches ingested" expected skipped

exception Boom

let test_ingest_source_closes_on_failure () =
  (* a failing pull must not leak the source: ingest_source closes it
     before the exception escapes, and the monitor stops exactly at the
     last completed batch *)
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let keep = 3 in
  let rec seq n bs () =
    if n = 0 then raise Boom
    else
      match bs with
      | [] -> Seq.Nil
      | b :: tl -> Seq.Cons (b, seq (n - 1) tl)
  in
  let s = Src.of_seq (seq keep (Array.to_list batches)) in
  let t = Sh.create ~jobs:1 M.default_config in
  (match Sh.ingest_source t s with
  | _ -> Alcotest.fail "the source failure was swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "batches before the failure are ingested" keep
    (Sh.day_count t);
  Alcotest.(check bool) "the failed source was closed" true (Src.next s = None)

(* ---------------- episode alerts ---------------- *)

(* An episode is the incident an operator acts on: these cases follow
   its lifecycle as the monitor's batch alerts report it. *)

let render_alert (a : M.alert) =
  Printf.sprintf "%s %s {%s} at %d"
    (match a.M.al_kind with
    | M.Opened -> "opened"
    | M.Flagged -> "flagged"
    | M.Closed -> "closed")
    (Prefix.to_string a.M.al_prefix)
    (String.concat "," (List.map Asn.to_string (Asn.Set.elements a.M.al_origins)))
    a.M.al_time

let check_alerts what expected m =
  Alcotest.(check (list string)) what expected
    (List.map render_alert (M.batch_alerts m))

let p2 = Prefix.of_string "198.51.100.0/24"

let test_incident_open () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10 ] 10));
  check_alerts "one origin is no incident" [] m;
  M.ingest m (ev ~time:5 p1 (ann 666));
  check_alerts "a second origin opens the episode at once"
    [ "opened 192.0.2.0/24 {AS10,AS666} at 5" ]
    m

let test_incident_aggregation () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10 ] 10));
  M.ingest m (ev ~time:5 p1 (ann ~list:[ 10; 666 ] 666));
  (* repeat announcements and a third origin fold into the one episode;
     the alert shows every origin involved by the time it is read *)
  M.ingest m (ev ~time:6 p1 (ann ~list:[ 10; 666 ] 666));
  M.ingest m (ev ~time:7 p1 (ann ~list:[ 10; 666 ] 10));
  M.ingest m (ev ~time:8 p1 (ann ~list:[ 10; 666 ] 30));
  check_alerts "one opened alert for the whole conflict"
    [ "opened 192.0.2.0/24 {AS10,AS30,AS666} at 5" ]
    m;
  M.settle m ~time:8;
  M.ingest m (ev ~time:9 p1 (ann ~list:[ 10; 666 ] 31));
  check_alerts "a later joiner raises nothing" [] m

let test_incident_escalation () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10 ] 10));
  M.ingest m (ev ~time:5 p1 (ann 666));
  (* flagged at the settle point, stamped with the stream clock (the
     latest event time), not the settle argument *)
  M.settle m ~time:100;
  check_alerts "the failed list check flags the episode"
    [ "opened 192.0.2.0/24 {AS10,AS666} at 5"; "flagged 192.0.2.0/24 {AS10,AS666} at 5" ]
    m;
  M.ingest m (ev ~time:20 p1 (ann 667));
  M.settle m ~time:200;
  check_alerts "a flagged episode is never flagged again" [] m;
  M.ingest m (ev ~time:30 p2 (ann ~list:[ 1; 2 ] 1));
  M.ingest m (ev ~time:31 p2 (ann ~list:[ 1; 2 ] 2));
  M.mark_day m ~time:day;
  check_alerts "agreeing lists never escalate"
    [ "opened 198.51.100.0/24 {AS1,AS2} at 31" ]
    m

let test_incident_distinct_prefixes () =
  let m = M.create M.default_config in
  List.iter (M.ingest m)
    [
      ev ~time:0 p2 (ann 1);
      ev ~time:0 p1 (ann 10);
      ev ~time:4 p2 (ann 2);
      ev ~time:4 p1 (ann 20);
    ];
  check_alerts "one episode per prefix, in (time, prefix) order"
    [ "opened 192.0.2.0/24 {AS10,AS20} at 4"; "opened 198.51.100.0/24 {AS1,AS2} at 4" ]
    m;
  Alcotest.(check int) "two open episodes" 2 (M.open_count m)

let test_incident_resolution () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10 ] 10));
  M.ingest m (ev ~time:5 p1 (ann 666));
  M.settle m ~time:5;
  M.ingest m (ev ~time:50 p1 (wd 666));
  M.settle m ~time:50;
  check_alerts "withdrawal to one origin closes the episode"
    [ "closed 192.0.2.0/24 {AS10,AS666} at 50" ]
    m;
  (* a later conflict on the same prefix is a fresh episode *)
  M.ingest m (ev ~time:90 p1 (ann 777));
  M.ingest m (ev ~time:95 p1 (wd 777));
  M.settle m ~time:95;
  check_alerts "a recurrence opens and closes its own episode"
    [ "opened 192.0.2.0/24 {AS10,AS777} at 90"; "closed 192.0.2.0/24 {AS10,AS777} at 95" ]
    m;
  Alcotest.(check (list int)) "recurrence indices" [ 1; 2 ]
    (List.map (fun e -> e.M.e_seq) (M.snapshot m).M.s_closed)

let test_incident_summary () =
  (* over the whole smoke archive, the batch alerts account for every
     episode the monitor's counters report *)
  let t = Sh.create ~jobs:1 M.default_config in
  let opened = ref 0 and flagged = ref 0 and closed = ref 0 in
  ignore
    (Sh.ingest_source t (Src.of_archive ~annotate Srv.smoke_params)
       ~on_batch:(fun t _ ->
         List.iter
           (fun (a : M.alert) ->
             incr
               (match a.M.al_kind with
               | M.Opened -> opened
               | M.Flagged -> flagged
               | M.Closed -> closed))
           (Sh.batch_alerts t)));
  let c = (Sh.snapshot t).M.s_counters in
  Alcotest.(check int) "opened" c.M.c_opened !opened;
  Alcotest.(check int) "flagged" c.M.c_alerts !flagged;
  Alcotest.(check int) "closed" c.M.c_closed !closed;
  Alcotest.(check int) "still open" (Sh.open_count t) (!opened - !closed)

let test_incident_end_to_end () =
  (* a hijack on a plain network, recorded by the collector mesh: the
     attacked prefix's episode opens, is flagged and closes when the
     attacker withdraws *)
  let topology = Topology.Paper_topologies.topology_46 () in
  let d = Collect.Scenario.design topology in
  let network = Bgp.Network.make topology.Topology.Paper_topologies.graph in
  let vantages = Collect.Vantage.attach network d.Collect.Scenario.d_specs in
  Collect.Scenario.originate_arm Collect.Scenario.Baseline network d;
  let attacked = Collect.Scenario.attacked_prefix in
  Bgp.Network.withdraw ~at:60.0 network d.Collect.Scenario.d_attacker attacked;
  ignore (Bgp.Network.run network);
  let merged, _ = Collect.Mesh.merge_streams (Collect.Vantage.streams vantages) in
  let t = Sh.create ~jobs:2 M.default_config in
  let alerts = ref [] in
  Array.iter
    (fun (tagged : Collect.Mesh.tagged) ->
      let e = tagged.Collect.Mesh.event in
      Sh.ingest_batch t ~time:e.M.time [| e |];
      alerts := !alerts @ Sh.batch_alerts t)
    merged;
  let on_attacked =
    List.filter (fun (a : M.alert) -> Prefix.equal a.M.al_prefix attacked) !alerts
  in
  Alcotest.(check (list string)) "opened, flagged, closed"
    [ "opened"; "flagged"; "closed" ]
    (List.map (fun a -> List.hd (String.split_on_char ' ' (render_alert a))) on_attacked);
  List.iter
    (fun (a : M.alert) ->
      Alcotest.(check bool) "attacker implicated" true
        (Asn.Set.mem d.Collect.Scenario.d_attacker a.M.al_origins))
    on_attacked

let test_batch_scope () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann 10));
  M.ingest m (ev ~time:5 p1 (ann 20));
  M.settle m ~time:5;
  let settled = [ "opened 192.0.2.0/24 {AS10,AS20} at 5"; "flagged 192.0.2.0/24 {AS10,AS20} at 5" ] in
  check_alerts "a settled batch's alerts" settled m;
  check_alerts "reading does not consume them" settled m;
  check_alerts "a restored monitor starts with none" [] (M.restore (M.snapshot m));
  M.settle m ~time:6;
  check_alerts "an empty batch replaces them" [] m

(* ---------------- qcheck properties ---------------- *)

let script_prefixes =
  [|
    Prefix.of_string "10.0.0.0/8";
    Prefix.of_string "192.0.2.0/24";
    Prefix.of_string "198.51.100.0/24";
    Prefix.of_string "203.0.113.0/24";
  |]

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 150)
      (triple (int_range 0 3) (int_range 1 6) (int_range 0 3)))

let act o = function
  | 0 -> wd o
  | 1 -> ann o
  | 2 -> ann ~list:[ 1; 2; 3; 4; 5; 6 ] o
  | _ -> ann ~list:[ o ] o

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k = function
      | x :: tl when k > 0 ->
        let a, b = take (k - 1) tl in
        (x :: a, b)
      | rest -> ([], rest)
    in
    let a, b = take n l in
    a :: chunk n b

let feed_sharded jobs script =
  let t = Sh.create ~jobs M.default_config in
  let events =
    List.mapi
      (fun i (pi, o, k) -> ev ~time:(i * 1000) script_prefixes.(pi) (act o k))
      script
  in
  List.iter
    (fun batch ->
      let arr = Array.of_list batch in
      let time = arr.(Array.length arr - 1).M.time in
      Sh.ingest_batch ~day_end:true t ~time arr)
    (chunk 10 events);
  t

let prop_episode_invariants =
  Testutil.qtest ~count:150 "episode invariants on random streams" script_gen
    (fun script ->
      let sn = Sh.snapshot (feed_sharded 1 script) in
      let c = sn.M.s_counters in
      let opens =
        List.length (List.filter (fun p -> p.M.p_open <> None) sn.M.s_prefixes)
      in
      let per_prefix = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let l = Option.value ~default:[] (Hashtbl.find_opt per_prefix e.M.e_prefix) in
          Hashtbl.replace per_prefix e.M.e_prefix (l @ [ e ]))
        sn.M.s_closed;
      let prefix_ok (p : M.prefix_state) =
        let closed = Option.value ~default:[] (Hashtbl.find_opt per_prefix p.M.p_prefix) in
        (* recurrence indices are consecutive from 1, episodes never
           overlap, and every close follows its open *)
        List.length closed = p.M.p_closed_count
        && List.for_all2
             (fun e i -> e.M.e_seq = i)
             closed
             (List.init (List.length closed) (fun i -> i + 1))
        && List.for_all (fun e -> e.M.e_ended >= e.M.e_started && e.M.e_days <= c.M.c_days) closed
        && (let rec no_overlap = function
              | a :: (b :: _ as tl) -> a.M.e_ended <= b.M.e_started && no_overlap tl
              | _ -> true
            in
            no_overlap closed)
        && match p.M.p_open with
           | Some o -> o.M.o_seq = p.M.p_closed_count + 1
           | None -> true
      in
      let sum f = List.fold_left (fun acc (_, w) -> acc + f w) 0 sn.M.s_windows in
      c.M.c_opened = c.M.c_closed + opens
      && c.M.c_closed = List.length sn.M.s_closed
      && List.for_all prefix_ok sn.M.s_prefixes
      && sum (fun w -> w.M.w_updates) = c.M.c_updates
      && sum (fun w -> w.M.w_opened) = c.M.c_opened
      && sum (fun w -> w.M.w_closed) = c.M.c_closed
      && sum (fun w -> w.M.w_alerts) = c.M.c_alerts)

let prop_jobs_invariance =
  Testutil.qtest ~count:60 "sharded ingest is jobs-invariant" script_gen
    (fun script ->
      String.equal
        (Rp.render (Sh.snapshot (feed_sharded 1 script)))
        (Rp.render (Sh.snapshot (feed_sharded 3 script))))

let prop_checkpoint_roundtrip =
  Testutil.qtest ~count:60 "checkpoint roundtrips on random streams" script_gen
    (fun script ->
      let sn = Sh.snapshot (feed_sharded 2 script) in
      let bytes = Ck.encode sn in
      let sn2 = Ck.decode bytes in
      Bytes.equal bytes (Ck.encode sn2)
      && String.equal (Rp.render sn) (Rp.render sn2))

(* Prefix ids are an in-memory handle: a monitor rebuilt from a snapshot
   re-interns in snapshot order, not first-announce order, so resuming
   from a mid-stream checkpoint must be invisible in every later output. *)
let prop_restore_midstream =
  Testutil.qtest ~count:60 "mid-stream restore is invisible"
    (QCheck2.Gen.pair script_gen script_gen)
    (fun (s1, s2) ->
      let events_at off s =
        List.mapi
          (fun i (pi, o, k) -> ev ~time:((off + i) * 1000) script_prefixes.(pi) (act o k))
          s
      in
      let evs1 = events_at 0 s1 and evs2 = events_at (List.length s1) s2 in
      let t_mid = List.length s1 * 1000 in
      let t_end = (List.length s1 + List.length s2) * 1000 in
      let run resume =
        let m = M.create M.default_config in
        List.iter (M.ingest m) evs1;
        M.settle m ~time:t_mid;
        let m = if resume then M.restore (M.snapshot m) else m in
        List.iter (M.ingest m) evs2;
        M.settle m ~time:t_end;
        Ck.encode (M.snapshot m)
      in
      Bytes.equal (run false) (run true))

(* The reference for the monitor's own alerts: diff consecutive merged
   snapshots.  An episode key (prefix, seq) is stable for the episode's
   whole life, so an episode open in [next] but not in [prev] opened,
   one clean in [prev] and flagged in [next] was flagged (at the stream
   clock), and one newly closed closed — after the alerts it never got
   to raise when its whole life fell between the two snapshots. *)
module Ep_map = Map.Make (struct
  type t = Prefix.t * int

  let compare (p1, s1) (p2, s2) =
    let c = Prefix.compare p1 p2 in
    if c <> 0 then c else Int.compare s1 s2
end)

let diff_snapshots ~(prev : M.snapshot) ~(next : M.snapshot) =
  let clock = next.M.s_last_time in
  let prev_open =
    List.fold_left
      (fun acc (p : M.prefix_state) ->
        match p.M.p_open with
        | Some o -> Ep_map.add (p.M.p_prefix, o.M.o_seq) o acc
        | None -> acc)
      Ep_map.empty prev.M.s_prefixes
  in
  let prev_closed =
    List.fold_left
      (fun acc (e : M.episode) -> Ep_map.add (e.M.e_prefix, e.M.e_seq) () acc)
      Ep_map.empty prev.M.s_closed
  in
  let alerts = ref [] in
  let emit al_time al_prefix al_origins al_kind =
    alerts := { M.al_time; al_prefix; al_origins; al_kind } :: !alerts
  in
  List.iter
    (fun (p : M.prefix_state) ->
      match p.M.p_open with
      | None -> ()
      | Some o -> (
        match Ep_map.find_opt (p.M.p_prefix, o.M.o_seq) prev_open with
        | None ->
          emit o.M.o_started p.M.p_prefix o.M.o_origins_ever M.Opened;
          if not o.M.o_clean then emit clock p.M.p_prefix o.M.o_origins_ever M.Flagged
        | Some po ->
          if po.M.o_clean && not o.M.o_clean then
            emit clock p.M.p_prefix o.M.o_origins_ever M.Flagged))
    next.M.s_prefixes;
  List.iter
    (fun (e : M.episode) ->
      if not (Ep_map.mem (e.M.e_prefix, e.M.e_seq) prev_closed) then begin
        let was_open = Ep_map.find_opt (e.M.e_prefix, e.M.e_seq) prev_open in
        if was_open = None then emit e.M.e_started e.M.e_prefix e.M.e_origins_ever M.Opened;
        (if not e.M.e_clean then
           match was_open with
           | Some po when not po.M.o_clean -> ()
           | _ -> emit clock e.M.e_prefix e.M.e_origins_ever M.Flagged);
        emit e.M.e_ended e.M.e_prefix e.M.e_origins_ever M.Closed
      end)
    next.M.s_closed;
  List.sort M.compare_alert !alerts

(* Streams whose prefixes keep their own clocks, so shards see different
   latest times, cut into batches that end a day or just settle at a
   batch time past every event in them. *)
let alert_script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 150)
      (tup5 (int_range 0 3) (int_range 1 6) (int_range 0 3) (int_range 0 3)
         (int_range 0 5)))

let alert_batches script =
  let clocks = Array.make (Array.length script_prefixes) 0 in
  let batches = ref [] and cur = ref [] in
  let cut ~day_end =
    match !cur with
    | [] -> ()
    | evs ->
      let evs = Array.of_list (List.rev evs) in
      let time =
        1 + Array.fold_left (fun acc (e : M.event) -> max acc e.M.time) 0 evs
      in
      batches := (day_end, time, evs) :: !batches;
      cur := []
  in
  List.iter
    (fun (pi, o, k, dt, c) ->
      clocks.(pi) <- clocks.(pi) + (dt * 1000);
      cur := ev ~time:(clocks.(pi) + pi) script_prefixes.(pi) (act o k) :: !cur;
      if c = 0 then cut ~day_end:true else if c = 1 then cut ~day_end:false)
    script;
  cut ~day_end:false;
  List.rev !batches

let prop_alerts_match_differ =
  Testutil.qtest ~count:150 "alerts equal the snapshot differ at any jobs"
    alert_script_gen (fun script ->
      let run jobs =
        let t = Sh.create ~jobs M.default_config in
        let prev = ref (M.empty_snapshot M.default_config) in
        List.map
          (fun (day_end, time, evs) ->
            Sh.ingest_batch ~day_end t ~time evs;
            let next = Sh.snapshot t in
            let expected = diff_snapshots ~prev:!prev ~next in
            prev := next;
            let got = Sh.batch_alerts t in
            if got <> expected then
              QCheck2.Test.fail_reportf "jobs=%d: got [%s], differ says [%s]" jobs
                (String.concat "; " (List.map render_alert got))
                (String.concat "; " (List.map render_alert expected));
            got)
          (alert_batches script)
      in
      run 1 = run 3)

(* Small archives, often with long outages, so that episodes start and
   stop inside runs of missing days. *)
let archive_params_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* initial = int_range 0 15 in
    let* growth = int_range 0 15 in
    let* one_day = int_range 0 10 in
    let* medium = int_range 0 10 in
    let* medium_max = int_range 2 60 in
    let* missing = oneof [ int_range 0 70; int_range 300 (Mutil.Day.measurement_days / 2) ] in
    let* ev98 = int_range 0 10 in
    let* ev01 = int_range 0 10 in
    let* spare = int_range 0 20 in
    return
      {
        Srv.seed = Int64.of_int seed;
        universe_size = initial + growth + one_day + medium + ev98 + ev01 + spare;
        initial_long_lived = initial;
        final_long_lived = initial + growth;
        one_day_churn = one_day;
        medium_churn = medium;
        medium_max_duration = medium_max;
        missing_day_count = missing;
        event_1998_size = ev98;
        event_2001_size = ev01;
      })

let prop_archive_equals_table_differ =
  Testutil.qtest ~count:40 "archive source equals the table differ"
    archive_params_gen (fun params ->
      let want = reference_archive_batches ~annotate params in
      let got = List.rev (Src.fold_archive ~annotate params ~init:[] ~f:(fun acc b -> b :: acc)) in
      List.length want = List.length got && List.for_all2 batch_equal want got)

(* ---------------- ingest allocation budget ---------------- *)

(* Minor words allocated per ingested event on the two hottest ingest
   paths over the smoke archive: the firehose (pool-sized chunks through
   the sharded monitor) and the collector mesh at 2, 4 and 8 vantages.
   Measured at jobs=1 only: [Gc.minor_words] counts the calling domain's
   allocations, so at jobs>1 the workers' share would go uncounted.  The
   jobs=4 run checks that the report does not depend on the job count,
   and on a machine with at least four cores that it is not slower. *)
let ingest_budget = 60.0

let check_ingest ~name ~events run render =
  let measure jobs =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = run jobs in
    let elapsed = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. w0 in
    (elapsed, words /. float_of_int (events r), render r)
  in
  let elapsed1, words1, report1 = measure 1 in
  let elapsed4, _, report4 = measure 4 in
  if words1 > ingest_budget then
    Alcotest.failf "%s allocates %.1f minor words/event at jobs=1, budget %.1f"
      name words1 ingest_budget;
  Alcotest.(check string) (name ^ ": report at jobs 1 and 4") report1 report4;
  let cores = Domain.recommended_domain_count () in
  if cores >= 4 && elapsed4 > elapsed1 then
    Alcotest.failf "%s is slower at jobs=4 than jobs=1 on a %d-core machine"
      name cores;
  report1

let test_ingest_allocation_budget () =
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let all = Array.concat (Array.to_list (Array.map (fun b -> b.Src.events) batches)) in
  let chunk = 2 * Sh.parallel_threshold in
  let chunks =
    Array.init ((Array.length all + chunk - 1) / chunk) (fun i ->
        let lo = i * chunk in
        let events = Array.sub all lo (min chunk (Array.length all - lo)) in
        (events.(Array.length events - 1).M.time, events))
  in
  ignore
    (check_ingest ~name:"firehose"
       ~events:(fun _ -> Array.length all)
       (fun jobs ->
         let t = Sh.create ~jobs M.default_config in
         Array.iter (fun (time, events) -> Sh.ingest_batch t ~time events) chunks;
         t)
       (fun t -> Rp.render (Sh.snapshot t)));
  let reports =
    List.map
      (fun vantages ->
        let streams =
          Collect.Vantage.replay ~coverage:0.65 ~vantages ~seed:0xC011EC7L
            batches
        in
        let streamed =
          List.fold_left (fun n (_, evs) -> n + Array.length evs) 0 streams
        in
        check_ingest
          ~name:(Printf.sprintf "mesh with %d vantages" vantages)
          ~events:(fun r -> streamed + r.Collect.Mesh.r_merged_events)
          (fun jobs -> Collect.Mesh.run ~jobs M.default_config streams)
          (fun r -> Rp.render r.Collect.Mesh.r_merged))
      [ 2; 4; 8 ]
  in
  List.iter
    (Alcotest.(check string) "merged report at every vantage count"
       (List.hd reports))
    reports

(* The monitor, and the sharded monitor at every job count, against the
   naive reference on adversarial streams over three prefixes and five
   origins: clocks that often stand still (same-timestamp announce and
   withdraw races), repeated announces, withdrawals of origins that never
   announced, and lists that are empty, name non-origins or omit current
   ones. *)
let reference_list o = function
  | 0 -> None
  | 1 -> Some []
  | 2 -> Some [ o ]
  | 3 -> Some [ 1; 2 ]
  | 4 -> Some [ 1; 2; 3 ]
  | 5 -> Some [ 1; 2; 3; 4; 5 ]
  | _ -> Some [ o; 7 ]

let reference_script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (tup5 (int_range 0 2) (int_range 1 5) (int_range 0 9)
         (frequencyl [ (3, 0); (1, 1); (1, 1000) ])
         (int_range 0 5)))

(* kinds 0-1 withdraw, 2-8 announce with a list, 9 repeats the last event *)
let reference_batches script =
  let clock = ref 0 and days = ref 0 and last = ref None in
  let batches = ref [] and cur = ref [] in
  let cut ~day_end =
    let events = Array.of_list (List.rev !cur) in
    let day = if day_end then (incr days; Some !days) else None in
    batches := { Src.time = !clock; day; events } :: !batches;
    cur := []
  in
  List.iter
    (fun (pi, o, kind, dt, c) ->
      clock := !clock + dt;
      let action =
        match (kind, !last) with
        | 9, Some a -> a
        | (0 | 1 | 9), _ -> wd o
        | k, _ ->
          let moas_list = Option.map Asn.Set.of_list (reference_list o (k - 2)) in
          M.Announce { origin = Asn.make o; moas_list }
      in
      last := Some action;
      cur := ev ~time:!clock script_prefixes.(pi) action :: !cur;
      if c = 0 then cut ~day_end:true else if c = 1 then cut ~day_end:false)
    script;
  cut ~day_end:true;
  List.rev !batches

let render_episode (e : Rp.episode_view) =
  Printf.sprintf "%s#%d %d-%s days=%d max=%d {%s} %s"
    (Prefix.to_string e.Rp.v_prefix) e.Rp.v_seq e.Rp.v_started
    (match e.Rp.v_ended with Some t -> string_of_int t | None -> "open")
    e.Rp.v_days e.Rp.v_max_origins
    (String.concat "," (List.map Asn.to_string (Asn.Set.elements e.Rp.v_origins)))
    (if e.Rp.v_clean then "clean" else "flagged")

let reference_view r =
  ( List.map render_episode (Ref.episodes r),
    Ref.daily_open_counts r,
    List.map render_case (Ref.cases r) )

let monitor_view snap daily =
  (List.map render_episode (Rp.episodes snap), daily, List.map render_case (Rp.cases snap))

let prop_agrees_with_reference =
  Testutil.qtest ~count:1000 "monitor and shards agree with the reference"
    reference_script_gen (fun script ->
      let batches = reference_batches script in
      let want = reference_view (Ref.of_batches batches) in
      let m = M.create M.default_config in
      let daily =
        List.filter_map
          (fun (b : Src.batch) ->
            Array.iter (M.ingest m) b.Src.events;
            match b.Src.day with
            | Some _ ->
              M.mark_day m ~time:b.Src.time;
              Some (M.open_count m)
            | None ->
              M.settle m ~time:b.Src.time;
              None)
          batches
      in
      let sharded jobs =
        let t = Sh.create ~jobs M.default_config in
        let daily =
          List.filter_map
            (fun (b : Src.batch) ->
              Sh.ingest_batch ~day_end:(b.Src.day <> None) t ~time:b.Src.time b.Src.events;
              Option.map (fun _ -> Sh.open_count t) b.Src.day)
            batches
        in
        (Printf.sprintf "jobs=%d" jobs, monitor_view (Sh.snapshot t) daily)
      in
      let show (eps, daily, cases) =
        String.concat "\n"
          (eps @ [ String.concat " " (List.map string_of_int daily) ] @ cases)
      in
      List.iter
        (fun (who, got) ->
          if got <> want then
            QCheck2.Test.fail_reportf "%s:\n%s\nreference:\n%s" who (show got) (show want))
        (("monitor", monitor_view (M.snapshot m) daily) :: List.map sharded [ 1; 2; 3; 4 ]);
      true)

let () =
  Alcotest.run "stream"
    [
      ( "monitor",
        [
          Alcotest.test_case "episode lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "validation at settle points" `Quick
            test_validation_flags;
          Alcotest.test_case "recurrence" `Quick test_recurrence;
          Alcotest.test_case "origins_validated predicate" `Quick
            test_origins_validated;
          Alcotest.test_case "window aggregation" `Quick test_windows;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "archive",
        [
          Alcotest.test_case "sharding invariance" `Quick
            test_sharding_invariance;
          Alcotest.test_case "alerts spike on fault days" `Quick
            test_alerts_spike_on_fault_days;
          Alcotest.test_case "agrees with the reference" `Quick
            test_archive_agrees_with_reference;
          Alcotest.test_case "metrics flow" `Quick test_metrics_flow;
          Alcotest.test_case "ingest allocation budget" `Quick
            test_ingest_allocation_budget;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "empty snapshot" `Quick test_checkpoint_empty;
          Alcotest.test_case "corruption rejected" `Quick
            test_checkpoint_rejects_corruption;
          Alcotest.test_case "adversarial sizes" `Quick
            test_checkpoint_adversarial_sizes;
          Alcotest.test_case "restore converges" `Quick
            test_checkpoint_restore_converges;
          Alcotest.test_case "restore re-credits metrics" `Quick
            test_restore_recredits_metrics;
        ] );
      ( "sources",
        [
          Alcotest.test_case "MRT batches" `Quick test_of_mrt;
          Alcotest.test_case "wire messages" `Quick test_of_wire;
          Alcotest.test_case "pull == fold" `Quick test_source_pull_equals_fold;
          Alcotest.test_case "close is final" `Quick test_source_close_is_final;
          Alcotest.test_case "dump tables unchanged" `Quick test_dump_tables_unchanged;
          Alcotest.test_case "archive == table differ" `Quick
            test_archive_equals_table_differ;
          Alcotest.test_case "ingest_source == batch loop" `Quick
            test_ingest_source_equals_batch_loop;
          Alcotest.test_case "ingest_source resume skips" `Quick
            test_ingest_source_since_skips;
          Alcotest.test_case "ingest_source closes a failed source" `Quick
            test_ingest_source_closes_on_failure;
        ] );
      ( "incidents",
        [
          Alcotest.test_case "open" `Quick test_incident_open;
          Alcotest.test_case "aggregation" `Quick test_incident_aggregation;
          Alcotest.test_case "escalation" `Quick test_incident_escalation;
          Alcotest.test_case "distinct prefixes" `Quick
            test_incident_distinct_prefixes;
          Alcotest.test_case "resolution" `Quick test_incident_resolution;
          Alcotest.test_case "summary" `Quick test_incident_summary;
          Alcotest.test_case "end to end" `Quick test_incident_end_to_end;
          Alcotest.test_case "alerts last one batch" `Quick test_batch_scope;
        ] );
      ( "properties",
        [
          prop_episode_invariants;
          prop_jobs_invariance;
          prop_checkpoint_roundtrip;
          prop_restore_midstream;
          prop_alerts_match_differ;
          prop_archive_equals_table_differ;
          prop_agrees_with_reference;
        ] );
    ]
