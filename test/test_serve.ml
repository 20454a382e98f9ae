(* Tests for lib/serve: MOASSERV frame round-trips and defensive decoding,
   the unified Query builder/parser/codec equivalences, live-tail alert
   derivation with deterministic subscription delivery ordering, and an
   end-to-end client/server smoke over the full wire path. *)

open Net
module M = Stream.Monitor
module Src = Stream.Source
module Q = Collect.Query
module Corr = Collect.Correlator
module Store = Collect.Store
module Proto = Serve.Proto
module Server = Serve.Server
module Client = Serve.Client
module Transport = Serve.Transport

let p1 = Prefix.of_string "192.0.2.0/24"
let p2 = Prefix.of_string "198.51.100.0/24"
let p2_sub = Prefix.of_string "198.51.100.128/25"

let ev ?(peer = 99) ~time prefix action =
  { M.time; peer = Asn.make peer; prefix; action }

let ann ?list o =
  M.Announce { origin = Asn.make o; moas_list = Option.map Asn.Set.of_list list }

let wd o = M.Withdraw { origin = Asn.make o }

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

let sample_query =
  Q.(empty |> prefix p2 |> covered |> origin (Asn.make 30) |> since 10
    |> until 90_000 |> min_visibility 2 |> bucket Stream.Monitor.Short)

let sample_alert kind =
  {
    Proto.al_time = 12_345;
    al_prefix = p1;
    al_origins = Asn.Set.of_list [ Asn.make 10; Asn.make 20 ];
    al_kind = kind;
  }

let sample_stats =
  {
    Proto.st_entries = 3;
    st_vantages = 3;
    st_sessions = 2;
    st_subscriptions = 4;
    st_live_batches = 7;
    st_live_updates = 473;
    st_live_open = 65;
    st_live_days = 7;
    st_degraded = true;
    st_shed = 12;
    st_timeouts = 3;
    st_evicted = 1;
  }

let sample_requests =
  [
    Proto.Ping;
    Proto.Query sample_query;
    Proto.Query Q.empty;
    Proto.Count sample_query;
    Proto.Subscribe Q.(empty |> min_visibility 1);
    Proto.Unsubscribe 42;
    Proto.Stats;
  ]

let sample_responses =
  [
    Proto.Pong;
    Proto.Entries
      { vantage_count = 3; entries = Store.entries (sample_store ()) };
    Proto.Entries { vantage_count = 0; entries = [] };
    Proto.Count_is 17;
    Proto.Subscribed 1;
    Proto.Unsubscribed 9;
    Proto.Alert { sub = 3; alert = sample_alert Proto.Opened };
    Proto.Alert { sub = 1; alert = sample_alert Proto.Flagged };
    Proto.Alert { sub = 2; alert = sample_alert Proto.Closed };
    Proto.Stats_are sample_stats;
    Proto.Rejected "no such thing";
  ]

(* ---------------- frame round-trips ---------------- *)

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let bytes = Proto.encode_request req in
      let req' = Proto.decode_request bytes in
      Alcotest.(check string)
        "request survives the codec" (Proto.request_kind req)
        (Proto.request_kind req');
      Alcotest.(check bool) "re-encode is byte-identical" true
        (Bytes.equal bytes (Proto.encode_request req')))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let bytes = Proto.encode_response resp in
      let resp' = Proto.decode_response bytes in
      Alcotest.(check string)
        "response survives the codec (rendered form)"
        (Proto.render_response resp)
        (Proto.render_response resp');
      Alcotest.(check bool) "re-encode is byte-identical" true
        (Bytes.equal bytes (Proto.encode_response resp')))
    sample_responses

(* ---------------- defensive decoding ---------------- *)

let expect_corrupt decode what data =
  match decode data with
  | _ -> Alcotest.failf "%s was accepted" what
  | exception Proto.Corrupt _ -> ()

let exercise_corruption encode decode value =
  let bytes = encode value in
  (* truncation at every cut point *)
  for n = 0 to Bytes.length bytes - 1 do
    expect_corrupt decode
      (Printf.sprintf "truncation to %d octets" n)
      (Bytes.sub bytes 0 n)
  done;
  (* trailing garbage (the payload length no longer matches either) *)
  expect_corrupt decode "trailing octet"
    (Bytes.cat bytes (Bytes.make 1 '\x00'));
  (* bad magic *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 0 'X';
  expect_corrupt decode "bad magic" bad;
  (* version bump: octet 8 follows the 8-octet magic *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 8 '\x07';
  expect_corrupt decode "version mismatch" bad;
  (* unknown kind tag: octet 9 *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 9 '\xff';
  expect_corrupt decode "unknown kind" bad;
  (* payload length lie: the u32 at octets 10..13 *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 13 (Char.chr ((Char.code (Bytes.get bad 13) + 1) land 0xff));
  expect_corrupt decode "payload length lie" bad

let test_request_rejects_corruption () =
  exercise_corruption Proto.encode_request Proto.decode_request
    (Proto.Subscribe sample_query);
  exercise_corruption Proto.encode_request Proto.decode_request Proto.Ping

let test_response_rejects_corruption () =
  exercise_corruption Proto.encode_response Proto.decode_response
    (Proto.Entries
       { vantage_count = 3; entries = Store.entries (sample_store ()) });
  exercise_corruption Proto.encode_response Proto.decode_response
    (Proto.Alert { sub = 1; alert = sample_alert Proto.Flagged })

(* ---------------- protocol fuzzing: mutated frames ---------------- *)

let req_frames = Array.of_list (List.map Proto.encode_request sample_requests)

let resp_frames =
  Array.of_list (List.map Proto.encode_response sample_responses)

let apply_mutations frame muts =
  let b = Bytes.copy frame in
  List.iter
    (fun (pos, mask) ->
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
    muts;
  b

(* a decoder for either direction, picked by the generator *)
let pick_frame is_req fi =
  if is_req then
    ( req_frames.(fi mod Array.length req_frames),
      fun b -> ignore (Proto.decode_request b) )
  else
    ( resp_frames.(fi mod Array.length resp_frames),
      fun b -> ignore (Proto.decode_response b) )

let prop_mutated_frames_never_crash =
  (* flip random octets of valid frames: the decoder must either return a
     value or raise Corrupt — any other exception (or a hang / over-read)
     fails the property *)
  Testutil.qtest ~count:2000 "mutated frame decodes or raises Corrupt"
    QCheck2.Gen.(
      triple bool (int_range 0 10_000)
        (list_size (int_range 1 8)
           (pair (int_range 0 10_000) (int_range 1 255))))
    (fun (is_req, fi, muts) ->
      let frame, decode = pick_frame is_req fi in
      match decode (apply_mutations frame muts) with
      | () -> true
      | exception Proto.Corrupt _ -> true)

let prop_single_octet_corruption_caught =
  (* the frame checksum guarantee: corrupting exactly one octet can never
     yield a different valid frame — it is always surfaced as Corrupt *)
  Testutil.qtest ~count:2000 "single-octet corruption is always Corrupt"
    QCheck2.Gen.(
      triple bool (int_range 0 10_000)
        (pair (int_range 0 10_000) (int_range 1 255)))
    (fun (is_req, fi, mut) ->
      let frame, decode = pick_frame is_req fi in
      match decode (apply_mutations frame [ mut ]) with
      | () -> false
      | exception Proto.Corrupt _ -> true)

(* ---------------- the unified query ---------------- *)

let query_gen_with visibility_gen =
  QCheck2.Gen.(
    map2
      (fun (p, cov, o) (s, u, k, b) -> (p, cov, o, s, u, k, b))
      (triple (option Testutil.prefix_gen) bool (option Testutil.asn_gen))
      (quad
         (option (int_range 0 200_000))
         (option (int_range 0 200_000))
         (option visibility_gen)
         (option
            (oneofl Stream.Monitor.[ Short; Medium; Long ]))))

let query_gen = query_gen_with (QCheck2.Gen.int_range 0 5)

(* the visibility floor travels as a u32: the largest one is accepted,
   anything above it is refused by the builder and by the parser *)
let visibility_fits = function Some k -> k <= 0xFFFF_FFFF | None -> true

let build_query (p, cov, o, s, u, k, b) =
  let q = Q.empty in
  let q = match p with Some p -> Q.prefix p q | None -> q in
  let q = if cov then Q.covered q else q in
  let q = match o with Some o -> Q.origin (Asn.make o) q | None -> q in
  let q = match s with Some s -> Q.since s q | None -> q in
  let q = match u with Some u -> Q.until u q | None -> q in
  let q = match k with Some k -> Q.min_visibility k q | None -> q in
  let q = match b with Some b -> Q.bucket b q | None -> q in
  q

let prop_builder_parse_equivalence =
  Testutil.qtest ~count:300
    "builder == parse (to_string q) == decode (encode q)"
    (query_gen_with
       QCheck2.Gen.(
         oneof
           [ int_range 0 5; oneofl [ 0xFFFF_FFFF; 0x1_0000_0000; 0x1_0000_0001 ] ]))
    (fun ((_, _, _, _, _, k, _) as spec) ->
      if visibility_fits k then
        let q = build_query spec in
        (match Q.parse (Q.to_string q) with
        | Ok q' -> Q.equal q q'
        | Error _ -> false)
        && Q.equal q (Q.decode (Q.encode q))
      else
        let k = Option.get k in
        (match build_query spec with
        | _ -> false
        | exception Invalid_argument _ -> true)
        && Result.is_error (Q.parse (Printf.sprintf "min_visibility=%d" k)))

let prop_query_wire_roundtrip =
  Testutil.qtest ~count:300 "query survives the request frame" query_gen
    (fun spec ->
      let q = build_query spec in
      match Proto.decode_request (Proto.encode_request (Proto.Query q)) with
      | Proto.Query q' -> Q.equal q q'
      | _ -> false)

(* Stores and queries drawn over the same few prefixes, origins and
   times, so that most clauses match some entries and miss others. *)
let served_prefixes = [| p1; p2; p2_sub; Prefix.of_string "203.0.113.0/24" |]

let store_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (map
         (fun ((pi, started, seq), (span, o, seen)) ->
           entry ~prefix:served_prefixes.(pi) ~origins:[ 10; 10 * o ] ~started ~seq
             ?ended:(if span = 0 then None else Some (started + span))
             ~days:(1 + (span / 100))
             ~seen:(List.filteri (fun i _ -> seen land (1 lsl i) <> 0) [ "vp00"; "vp01"; "vp02" ])
             ())
         (pair
            (triple (int_range 0 3) (int_range 0 1_000) (int_range 1 3))
            (triple (int_range 0 10_000) (int_range 2 4) (int_range 0 7)))))

let served_query_gen =
  QCheck2.Gen.(
    map2
      (fun (p, cov, o) (s, u, k, b) -> (p, cov, o, s, u, k, b))
      (triple
         (option (map (Array.get served_prefixes) (int_range 0 3)))
         bool
         (option (oneofl [ 10; 20; 30; 40; 50 ])))
      (quad
         (option (int_range 0 5_000))
         (option (int_range 0 1_000))
         (option (int_range 0 3))
         (option (oneofl Stream.Monitor.[ Short; Medium; Long ]))))

let prop_count_equals_query_length =
  Testutil.qtest ~count:300 "Count reply == length of the query's entries"
    (QCheck2.Gen.pair store_gen served_query_gen)
    (fun (es, spec) ->
      let store =
        Store.of_correlation { Corr.c_vantages = [ "vp00"; "vp01"; "vp02" ]; c_entries = es }
      in
      let q = build_query spec in
      let c = Client.connect (Server.create ~store ()) in
      let reply = Client.call c (Proto.Count q) in
      Client.close c;
      let want = List.length (Store.query store q) in
      Store.count_matching store q = want
      && match reply with Proto.Count_is n -> n = want | _ -> false)

(* The server writes a query's reply from the store's cached entry
   octets; it must be, octet for octet, the frame encode_response writes
   for the same entries, on a built store and on a decoded one. *)
let query_reply store q =
  let server = Server.create ~store () in
  Server.handle server ~session:(Server.open_session server) (Proto.encode_request (Proto.Query q))

let prop_reply_equals_encoded_entries =
  Testutil.qtest ~count:300 "Query reply == encode_response (Entries (Store.query q))"
    (QCheck2.Gen.pair store_gen (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 6) served_query_gen))
    (fun (es, specs) ->
      let built =
        Store.of_correlation { Corr.c_vantages = [ "vp00"; "vp01"; "vp02" ]; c_entries = es }
      in
      List.for_all
        (fun store ->
          List.for_all
            (fun q ->
              Bytes.equal (query_reply store q)
                (Proto.encode_response
                   (Proto.Entries
                      { vantage_count = List.length (Store.vantages store); entries = Store.query store q })))
            (Q.empty :: List.map build_query specs))
        [ built; Store.decode (Store.encode built) ])

(* the pinned MOASSERV entries frame (test_codec) is what the server
   sends for the empty query on the [collect --smoke] store *)
let test_smoke_reply_pin () =
  let store = Lazy.force Testutil.collect_smoke_store in
  Alcotest.(check string) "MD5 of the reply to the empty query"
    "5d4dd1f0038d9ecbe102ba50df754b3d"
    (Digest.to_hex (Digest.bytes (query_reply store Q.empty)))

let test_builder_validation () =
  List.iter
    (fun (name, f) ->
      match f Q.empty with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ("negative since", Q.since (-1));
      ("negative until", Q.until (-5));
      ("negative visibility floor", Q.min_visibility (-2));
      ("visibility floor above u32", Q.min_visibility 0x1_0000_0000);
    ];
  match Q.parse "since=-3" with
  | Ok _ -> Alcotest.fail "negative since parsed"
  | Error _ -> ()

(* ---------------- live tail: alerts and delivery ordering ------------- *)

(* Two batches over a server with subscriptions on both clients:

   batch 1
     p1:     AS10 (list {10}) then AS20 (no list)  -> opens at 20, flagged
     p2_sub: AS30 and AS40, both listing {30,40}   -> opens at 40, clean
   batch 2
     p1: withdraw AS20                             -> closes at 150

   Flag alerts carry the monitor's stream clock at the settle point (the
   latest event time, 40).  Expected alerts in (time, prefix, kind) order:
     batch 1: opened p1 @20;  flagged p1 @40;  opened p2_sub @40
     batch 2: closed p1 @150 *)
let tail_batches =
  [|
    {
      Src.time = 100;
      day = None;
      events =
        [|
          ev ~time:10 p1 (ann ~list:[ 10 ] 10);
          ev ~time:20 p1 (ann 20);
          ev ~time:30 p2_sub (ann ~list:[ 30; 40 ] 30);
          ev ~time:40 p2_sub (ann ~list:[ 30; 40 ] 40);
        |];
    };
    { Src.time = 200; day = None; events = [| ev ~time:150 p1 (wd 20) |] };
  |]

let rendered rs = List.map Proto.render_response rs

let test_subscription_delivery_ordering () =
  let server = Server.create ~store:(sample_store ()) () in
  let a = Client.connect server and b = Client.connect server in
  let subscribe c q =
    match Client.call c (Proto.Subscribe q) with
    | Proto.Subscribed id -> id
    | r -> Alcotest.failf "subscribe failed: %s" (Proto.render_response r)
  in
  Alcotest.(check int) "a/sub ids start at 1" 1 (subscribe a Q.empty);
  Alcotest.(check int) "a/second sub" 2 (subscribe a Q.(empty |> prefix p1));
  Alcotest.(check int) "b/ids are per-session" 1
    (subscribe b Q.(empty |> prefix p2 |> covered));
  Alcotest.(check int) "b/origin filter" 2
    (subscribe b Q.(empty |> origin (Asn.make 20)));
  Alcotest.(check int) "b/floor above live visibility" 3
    (subscribe b Q.(empty |> min_visibility 2));
  let source = Src.of_batches tail_batches in
  Alcotest.(check int) "one batch tailed" 1
    (Server.tail ~max_batches:1 server source);
  (* alerts in (time, prefix, kind) order; within one alert, subscriptions
     in ascending id *)
  Alcotest.(check (list string)) "first batch, client a"
    [
      "alert #1 opened 192.0.2.0/24 origins={AS10,AS20} at 20";
      "alert #2 opened 192.0.2.0/24 origins={AS10,AS20} at 20";
      "alert #1 flagged 192.0.2.0/24 origins={AS10,AS20} at 40";
      "alert #2 flagged 192.0.2.0/24 origins={AS10,AS20} at 40";
      "alert #1 opened 198.51.100.128/25 origins={AS30,AS40} at 40";
    ]
    (rendered (Client.poll a));
  Alcotest.(check (list string)) "first batch, client b"
    [
      "alert #2 opened 192.0.2.0/24 origins={AS10,AS20} at 20";
      "alert #2 flagged 192.0.2.0/24 origins={AS10,AS20} at 40";
      "alert #1 opened 198.51.100.128/25 origins={AS30,AS40} at 40";
    ]
    (rendered (Client.poll b));
  Alcotest.(check (list string)) "poll drains" [] (rendered (Client.poll a));
  (* unsubscribing stops delivery for that subscription only *)
  (match Client.call a (Proto.Unsubscribe 1) with
  | Proto.Unsubscribed 1 -> ()
  | r -> Alcotest.failf "unsubscribe failed: %s" (Proto.render_response r));
  Alcotest.(check int) "second batch tailed" 1 (Server.tail server source);
  Alcotest.(check (list string)) "second batch, client a"
    [ "alert #2 closed 192.0.2.0/24 origins={AS10,AS20} at 150" ]
    (rendered (Client.poll a));
  Alcotest.(check (list string)) "second batch, client b"
    [ "alert #2 closed 192.0.2.0/24 origins={AS10,AS20} at 150" ]
    (rendered (Client.poll b));
  Alcotest.(check int) "source exhausted" 0 (Server.tail server source);
  Client.close a;
  Client.close b;
  Alcotest.(check int) "sessions drained" 0 (Server.session_count server)

let test_tail_within_one_batch () =
  (* an episode that opens and closes inside one batch still raises both
     lifecycle alerts *)
  let server = Server.create ~store:(Store.empty ~vantages:[ "v" ]) () in
  let c = Client.connect server in
  (match Client.call c (Proto.Subscribe Q.empty) with
  | Proto.Subscribed _ -> ()
  | r -> Alcotest.failf "subscribe failed: %s" (Proto.render_response r));
  let batch =
    {
      Src.time = 500;
      day = None;
      events =
        [|
          ev ~time:10 p1 (ann ~list:[ 10 ] 10);
          ev ~time:20 p1 (ann 20);
          ev ~time:30 p1 (wd 20);
        |];
    }
  in
  ignore (Server.tail server (Src.of_batches [| batch |]));
  (* MOAS-list validation is deferred to settle points (mid-batch
     re-announcement races must not raise false alarms), so a conflict
     that closes before the batch settles is never flagged: the episode
     raises exactly its two lifecycle alerts *)
  Alcotest.(check (list string)) "opened then closed, no flag"
    [
      "alert #1 opened 192.0.2.0/24 origins={AS10,AS20} at 20";
      "alert #1 closed 192.0.2.0/24 origins={AS10,AS20} at 30";
    ]
    (rendered (Client.poll c));
  Client.close c

let test_tail_jobs_invariant () =
  (* the live monitor's shards share one stream clock, so the alerts a
     subscriber sees do not depend on how many shards the tail runs *)
  let polls live_jobs =
    let server =
      Server.create ~live_jobs ~store:(Store.empty ~vantages:[ "v" ]) ()
    in
    let c = Client.connect server in
    ignore (Client.call c (Proto.Subscribe Q.empty));
    let source = Src.of_batches tail_batches in
    List.init 2 (fun _ ->
        ignore (Server.tail ~max_batches:1 server source);
        rendered (Client.poll c))
  in
  let one = polls 1 in
  Alcotest.(check (list (list string))) "live_jobs 3 = live_jobs 1" one (polls 3);
  Alcotest.(check (list string)) "flag stamped with the global clock"
    [ "alert #1 flagged 192.0.2.0/24 origins={AS10,AS20} at 40" ]
    (List.filter (fun s -> Testutil.contains s "flagged") (List.hd one))

(* ---------------- resilience: deadlines, shedding, eviction ----------- *)

let ping_frame = Proto.encode_request Proto.Ping

let expect_rejected ~what ~needle frame =
  match Proto.decode_response frame with
  | Proto.Rejected reason -> Testutil.check_contains ~what reason needle
  | r -> Alcotest.failf "%s was answered: %s" what (Proto.render_response r)

let test_deadline_budget () =
  let clock = ref 100.0 in
  let limits = { Server.default_limits with Server.deadline = 1.0 } in
  let server =
    Server.create ~limits ~now:(fun () -> !clock) ~store:(sample_store ()) ()
  in
  let sid = Server.open_session server in
  (match
     Proto.decode_response (Server.handle server ~session:sid ping_frame)
   with
  | Proto.Pong -> ()
  | r -> Alcotest.failf "fresh ping failed: %s" (Proto.render_response r));
  (* the budget is measured from arrival: a frame that spent two seconds
     in transit is dead on arrival, no work done *)
  expect_rejected ~what:"stale arrival" ~needle:"deadline exceeded"
    (Server.handle ~arrival:(!clock -. 2.0) server ~session:sid ping_frame);
  Alcotest.(check int) "timeout counted" 1 (Server.timeout_total server);
  Alcotest.(check int) "stats see the timeout" 1
    (Server.live_stats server).Proto.st_timeouts

let test_overload_shed () =
  let limits = { Server.default_limits with Server.max_inflight = 0 } in
  let server = Server.create ~limits ~store:(sample_store ()) () in
  let sid = Server.open_session server in
  expect_rejected ~what:"overload refusal" ~needle:"overloaded"
    (Server.handle server ~session:sid ping_frame);
  Alcotest.(check int) "shed counted" 1 (Server.shed_total server)

let test_queue_shed_and_evict () =
  (* queue_high_water 2: batch 1's three alerts overflow each outbox once,
     shedding the OLDEST alert; a session that keeps overflowing
     (evict_after 2) is dropped wholesale *)
  let limits =
    { Server.default_limits with Server.queue_high_water = 2; evict_after = 2 }
  in
  let server =
    Server.create ~limits ~store:(Store.empty ~vantages:[ "v" ]) ()
  in
  let a = Client.connect server and b = Client.connect server in
  List.iter
    (fun c ->
      match Client.call c (Proto.Subscribe Q.empty) with
      | Proto.Subscribed _ -> ()
      | r -> Alcotest.failf "subscribe failed: %s" (Proto.render_response r))
    [ a; b ];
  let source = Src.of_batches tail_batches in
  Alcotest.(check int) "first batch tailed" 1
    (Server.tail ~max_batches:1 server source);
  Alcotest.(check int) "one shed per session" 2 (Server.shed_total server);
  (* the newest suffix survives, in the original order *)
  Alcotest.(check (list string)) "oldest alert shed first"
    [
      "alert #1 flagged 192.0.2.0/24 origins={AS10,AS20} at 40";
      "alert #1 opened 198.51.100.128/25 origins={AS30,AS40} at 40";
    ]
    (rendered (Client.poll a));
  (* a drained its outbox; b never polls, so batch 2 overflows it a second
     time, crossing evict_after: b is evicted, a is unaffected *)
  Alcotest.(check int) "second batch tailed" 1 (Server.tail server source);
  Alcotest.(check int) "slow consumer evicted" 1 (Server.evicted_total server);
  Alcotest.(check int) "well-behaved session survives" 1
    (Server.session_count server);
  Alcotest.(check (list string)) "evicted session polls nothing" []
    (rendered (Client.poll b));
  Alcotest.(check (list string)) "surviving session still gets alerts"
    [ "alert #1 closed 192.0.2.0/24 origins={AS10,AS20} at 150" ]
    (rendered (Client.poll a));
  Client.close a

(* ---------------- client retry ---------------- *)

(* retry schedule with no real pauses: tests run at full speed *)
let fast_retry =
  { Client.default_retry with Client.base_delay = 0.; max_delay = 0. }

(* a transport whose next [fail_first] requests raise Unavailable *)
let flaky_transport server fail_first =
  let inner = Transport.of_server server in
  let remaining = ref fail_first in
  ( {
      inner with
      Transport.request =
        (fun ~arrival ~session data ->
          if !remaining > 0 then begin
            decr remaining;
            raise (Transport.Unavailable "flaky")
          end;
          inner.Transport.request ~arrival ~session data);
    },
    remaining )

let test_retry_transient_then_success () =
  let server = Server.create ~store:(sample_store ()) () in
  let transport, _ = flaky_transport server 2 in
  let c = Client.connect_via ~retry:fast_retry ~sleep:(fun _ -> ()) transport in
  (match Client.call c Proto.Ping with
  | Proto.Pong -> ()
  | r -> Alcotest.failf "ping failed: %s" (Proto.render_response r));
  Alcotest.(check int) "two re-sends" 2 (Client.retries c);
  Alcotest.(check int) "no failures" 0 (Client.failures c);
  Client.close c

let test_retry_exhaustion_raises () =
  let server = Server.create ~store:(sample_store ()) () in
  let transport, _ = flaky_transport server 100 in
  let c = Client.connect_via ~retry:fast_retry ~sleep:(fun _ -> ()) transport in
  (match Client.call c (Proto.Query Q.empty) with
  | _ -> Alcotest.fail "exhausted retries did not raise"
  | exception Client.Failed (Client.Unreachable _) -> ());
  Alcotest.(check int) "all attempts used" 2 (Client.retries c);
  Alcotest.(check int) "failure counted" 1 (Client.failures c)

let test_no_blind_retry_of_subscribe () =
  (* a Subscribe whose fate is unknown must not be re-sent — it could
     double-subscribe: one transport failure fails the call immediately *)
  let server = Server.create ~store:(sample_store ()) () in
  let transport, remaining = flaky_transport server 1 in
  let c = Client.connect_via ~retry:fast_retry ~sleep:(fun _ -> ()) transport in
  (match Client.call c (Proto.Subscribe Q.empty) with
  | _ -> Alcotest.fail "non-idempotent call was retried"
  | exception Client.Failed (Client.Unreachable _) -> ());
  Alcotest.(check int) "no re-send happened" 0 (Client.retries c);
  Alcotest.(check int) "the fault was consumed" 0 !remaining;
  Alcotest.(check int) "no subscription leaked" 0
    (Server.subscription_count server)

let test_subscribe_retried_after_preexec_refusal () =
  (* an overload shed provably happens before execution, so even a
     Subscribe is safe to re-send after one *)
  let server = Server.create ~store:(sample_store ()) () in
  let inner = Transport.of_server server in
  let first = ref true in
  let transport =
    {
      inner with
      Transport.request =
        (fun ~arrival ~session data ->
          if !first then begin
            first := false;
            Proto.encode_response
              (Proto.Rejected "overloaded: too many requests in flight")
          end
          else inner.Transport.request ~arrival ~session data);
    }
  in
  let c = Client.connect_via ~retry:fast_retry ~sleep:(fun _ -> ()) transport in
  (match Client.call c (Proto.Subscribe Q.empty) with
  | Proto.Subscribed 1 -> ()
  | r -> Alcotest.failf "subscribe failed: %s" (Proto.render_response r));
  Alcotest.(check int) "one re-send" 1 (Client.retries c);
  Alcotest.(check int) "exactly one subscription" 1
    (Server.subscription_count server);
  Client.close c

let test_call_timeout () =
  (* replies slower than the per-call budget (on the injected clock) are
     a transport failure: retried, then Failed (Timed_out _) *)
  let server = Server.create ~store:(sample_store ()) () in
  let inner = Transport.of_server server in
  let t = ref 0.0 in
  let transport =
    {
      inner with
      Transport.request =
        (fun ~arrival ~session data ->
          t := !t +. 5.0;
          inner.Transport.request ~arrival ~session data);
    }
  in
  let c =
    Client.connect_via
      ~retry:{ fast_retry with Client.attempts = 2 }
      ~timeout:1.0
      ~clock:(fun () -> !t)
      ~sleep:(fun _ -> ())
      transport
  in
  (match Client.call c Proto.Ping with
  | _ -> Alcotest.fail "slow reply was accepted"
  | exception Client.Failed (Client.Timed_out _) -> ());
  Alcotest.(check int) "retried once before giving up" 1 (Client.retries c)

(* ---------------- client/server integration smoke ---------------- *)

let test_serve_smoke () =
  let store = sample_store () in
  let metrics = Obs.Registry.create () in
  let server = Server.create ~metrics ~store () in
  let c = Client.connect server in
  (match Client.call c Proto.Ping with
  | Proto.Pong -> ()
  | r -> Alcotest.failf "ping failed: %s" (Proto.render_response r));
  (* a wire query returns exactly what the store returns directly *)
  let q = Q.(empty |> prefix p2 |> covered) in
  (match Client.call c (Proto.Query q) with
  | Proto.Entries { vantage_count; entries } ->
    Alcotest.(check int) "vantage count" 3 vantage_count;
    Alcotest.(check (list string)) "wire query == direct store query"
      (List.map (Corr.render_entry ~vantage_count:3) (Store.query store q))
      (List.map (Corr.render_entry ~vantage_count:3) entries)
  | r -> Alcotest.failf "query failed: %s" (Proto.render_response r));
  (match Client.call c (Proto.Count Q.empty) with
  | Proto.Count_is 3 -> ()
  | r -> Alcotest.failf "count failed: %s" (Proto.render_response r));
  (match Client.call c Proto.Stats with
  | Proto.Stats_are s ->
    Alcotest.(check int) "stats entries" 3 s.Proto.st_entries;
    Alcotest.(check int) "stats sessions" 1 s.Proto.st_sessions
  | r -> Alcotest.failf "stats failed: %s" (Proto.render_response r));
  (* garbage in, Rejected out — the server never throws at the client *)
  (match
     Proto.decode_response
       (Server.handle server ~session:(Client.session c)
          (Bytes.of_string "NOTMAGIC\x01\x01\x00\x00\x00\x00"))
   with
  | Proto.Rejected reason ->
    Testutil.check_contains ~what:"rejection reason" reason "malformed"
  | r -> Alcotest.failf "garbage was answered: %s" (Proto.render_response r));
  (* unknown session ids are rejected, not fatal *)
  (match
     Proto.decode_response
       (Server.handle server ~session:999
          (Proto.encode_request (Proto.Subscribe Q.empty)))
   with
  | Proto.Rejected reason ->
    Testutil.check_contains ~what:"rejection reason" reason "unknown session"
  | r -> Alcotest.failf "bad session was accepted: %s" (Proto.render_response r));
  (match Client.call c (Proto.Unsubscribe 7) with
  | Proto.Rejected _ -> ()
  | r -> Alcotest.failf "bogus unsubscribe accepted: %s" (Proto.render_response r));
  Client.close c;
  Client.close c;  (* idempotent *)
  let dump = Obs.Registry.to_json_lines metrics in
  Testutil.check_contains ~what:"metrics dump" dump "serve_requests_total";
  Testutil.check_contains ~what:"metrics dump" dump "\"kind\":\"query\"";
  Testutil.check_contains ~what:"metrics dump" dump "\"kind\":\"malformed\"";
  Testutil.check_contains ~what:"metrics dump" dump "serve_request_seconds"

let test_concurrent_clients () =
  (* hammer one server from several domains through the full wire path;
     per-kind counters must account for every request *)
  let store = sample_store () in
  let metrics = Obs.Registry.create () in
  let server = Server.create ~metrics ~store () in
  let per_client = 200 in
  let run _ =
    let c = Client.connect server in
    for i = 1 to per_client do
      match
        Client.call c
          (if i mod 2 = 0 then Proto.Query Q.empty
           else Proto.Count Q.(empty |> min_visibility 2))
      with
      | Proto.Entries _ | Proto.Count_is _ -> ()
      | r -> Alcotest.failf "call failed: %s" (Proto.render_response r)
    done;
    Client.close c;
    per_client
  in
  let totals = Exec.Pool.map ~jobs:4 run (Array.init 4 Fun.id) in
  Alcotest.(check int) "all calls returned" (4 * per_client)
    (Array.fold_left ( + ) 0 totals);
  let v kind =
    Obs.Registry.counter_value metrics ~labels:[ ("kind", kind) ]
      "serve_requests_total"
  in
  Alcotest.(check int) "every request counted" (4 * per_client)
    (v "query" + v "count");
  Alcotest.(check int) "no sessions leak" 0 (Server.session_count server)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "request corruption rejected" `Quick
            test_request_rejects_corruption;
          Alcotest.test_case "response corruption rejected" `Quick
            test_response_rejects_corruption;
          prop_mutated_frames_never_crash;
          prop_single_octet_corruption_caught;
        ] );
      ( "query",
        [
          prop_builder_parse_equivalence;
          prop_query_wire_roundtrip;
          Alcotest.test_case "builder validation" `Quick
            test_builder_validation;
          prop_count_equals_query_length;
          prop_reply_equals_encoded_entries;
          Alcotest.test_case "smoke store reply pin" `Quick test_smoke_reply_pin;
        ] );
      ( "tail",
        [
          Alcotest.test_case "subscription delivery ordering" `Quick
            test_subscription_delivery_ordering;
          Alcotest.test_case "whole episode in one batch" `Quick
            test_tail_within_one_batch;
          Alcotest.test_case "alerts invariant under live_jobs" `Quick
            test_tail_jobs_invariant;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "deadline budget" `Quick test_deadline_budget;
          Alcotest.test_case "overload shedding" `Quick test_overload_shed;
          Alcotest.test_case "queue shedding and eviction" `Quick
            test_queue_shed_and_evict;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient then success" `Quick
            test_retry_transient_then_success;
          Alcotest.test_case "exhaustion raises Failed" `Quick
            test_retry_exhaustion_raises;
          Alcotest.test_case "no blind retry of subscribe" `Quick
            test_no_blind_retry_of_subscribe;
          Alcotest.test_case "subscribe retried after pre-exec refusal"
            `Quick test_subscribe_retried_after_preexec_refusal;
          Alcotest.test_case "per-call timeout" `Quick test_call_timeout;
        ] );
      ( "integration",
        [
          Alcotest.test_case "client/server smoke" `Quick test_serve_smoke;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
        ] );
    ]
