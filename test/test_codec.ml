(* Tests for lib/net/codec: the word-wide readers and writers and the
   slice-by-8 CRC-32, each checked against the bytewise implementation it
   replaced (kept below as a reference), and MD5 pins of the MOASSTOR,
   MOASSERV and MOASSTRM bytes, so a rewrite of the byte path cannot
   change a single octet of any persisted or wire format unnoticed. *)

open Net

exception Bad of string

let fail m = Bad m

(* ---------------- references: the bytewise implementations ---------------- *)

let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_crc32 ?(seed = 0) data ~pos ~len =
  let crc = ref (seed lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc :=
      ref_table.((!crc lxor Char.code (Bytes.get data i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let ref_put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let ref_put_u16 buf v =
  ref_put_u8 buf (v lsr 8);
  ref_put_u8 buf v

let ref_put_u32 buf v =
  ref_put_u16 buf (v lsr 16);
  ref_put_u16 buf (v land 0xffff)

let ref_put_i63 buf v =
  ref_put_u32 buf (v lsr 32);
  ref_put_u32 buf (v land 0xffffffff)

let ref_take_u16 c =
  let hi = Codec.take_u8 c in
  (hi lsl 8) lor Codec.take_u8 c

let ref_take_u32 c =
  let hi = ref_take_u16 c in
  (hi lsl 16) lor ref_take_u16 c

let ref_take_i63 c =
  let hi = ref_take_u32 c in
  (hi lsl 32) lor ref_take_u32 c

let bytes_gen ~lo ~hi =
  QCheck2.Gen.(map Bytes.of_string (string_size ~gen:char (int_range lo hi)))

(* ---------------- CRC-32 ---------------- *)

let test_crc_known_answer () =
  let check = Bytes.of_string "123456789" in
  Alcotest.(check int) "CRC-32 of 123456789" 0xCBF43926
    (Codec.crc32 check ~pos:0 ~len:9);
  Alcotest.(check int) "reference agrees" 0xCBF43926
    (ref_crc32 check ~pos:0 ~len:9);
  Alcotest.(check int) "empty range" 0 (Codec.crc32 check ~pos:4 ~len:0);
  Alcotest.(check int) "empty range keeps the seed" 0x1234
    (Codec.crc32 ~seed:0x1234 check ~pos:9 ~len:0)

(* every start offset and every length up to 40 covers every tail length
   after the 8-octet word loop, at every alignment *)
let prop_crc_small_ranges =
  Testutil.qtest ~count:200 "crc32 = bytewise on every small range"
    (bytes_gen ~lo:0 ~hi:48)
    (fun data ->
      let n = Bytes.length data in
      let ok = ref true in
      for pos = 0 to n do
        for len = 0 to min 40 (n - pos) do
          if Codec.crc32 data ~pos ~len <> ref_crc32 data ~pos ~len then
            ok := false
        done
      done;
      !ok)

let prop_crc_large_ranges =
  Testutil.qtest ~count:100 "crc32 = bytewise on large ranges"
    QCheck2.Gen.(
      triple (bytes_gen ~lo:0 ~hi:5000) (int_range 0 5000) (int_range 0 5000))
    (fun (data, a, b) ->
      let n = Bytes.length data in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Codec.crc32 data ~pos ~len = ref_crc32 data ~pos ~len
      && Codec.crc32 data ~pos:0 ~len:n = ref_crc32 data ~pos:0 ~len:n)

let prop_crc_chaining =
  Testutil.qtest ~count:200 "crc (a || b) = crc ~seed:(crc a) b"
    QCheck2.Gen.(pair (bytes_gen ~lo:0 ~hi:300) (bytes_gen ~lo:0 ~hi:300))
    (fun (a, b) ->
      let ab = Bytes.cat a b in
      let la = Bytes.length a and lb = Bytes.length b in
      let whole = Codec.crc32 ab ~pos:0 ~len:(la + lb) in
      let first = Codec.crc32 a ~pos:0 ~len:la in
      whole = Codec.crc32 ~seed:first b ~pos:0 ~len:lb
      && whole = Codec.crc32 ~seed:first ab ~pos:la ~len:lb
      && whole = ref_crc32 ~seed:(ref_crc32 a ~pos:0 ~len:la) b ~pos:0 ~len:lb)

let test_crc_out_of_range () =
  let data = Bytes.make 16 'x' in
  let rejects what pos len =
    match Codec.crc32 data ~pos ~len with
    | v -> Alcotest.failf "%s accepted (crc %08x)" what v
    | exception Invalid_argument _ -> ()
  in
  rejects "negative pos" (-1) 4;
  rejects "negative len" 0 (-1);
  rejects "range past the end" 9 8;
  rejects "pos past the end" 17 0;
  rejects "word-sized range past the end" 8 9;
  Alcotest.(check int) "the whole buffer is in range"
    (ref_crc32 data ~pos:0 ~len:16)
    (Codec.crc32 data ~pos:0 ~len:16)

(* ---------------- readers and writers ---------------- *)

(* Read with [take] until the window runs out: the values, the position
   after each, and the failure message that ends it. *)
let read_all take data ~pos ~len =
  let c = Codec.cursor_slice ~fail data ~pos ~len in
  let rec loop acc =
    match take c with
    | v -> loop ((v, Codec.pos c) :: acc)
    | exception Bad m -> (List.rev acc, Codec.pos c, m)
  in
  loop []

let readers =
  [
    ("take_u16", Codec.take_u16, ref_take_u16);
    ("take_u32", Codec.take_u32, ref_take_u32);
    ("take_i63", Codec.take_i63, ref_take_i63);
  ]

let read_trace =
  Alcotest.(triple (list (pair int int)) int string)

(* every window of a 20-octet buffer: every start, every limit, so every
   reader is cut at every offset, including limits short of the buffer *)
let test_readers_match_reference () =
  let data = Bytes.init 20 (fun i -> Char.chr ((i * 73 + 41) land 0xff)) in
  List.iter
    (fun (name, take, reference) ->
      for pos = 0 to 20 do
        for len = 0 to 20 - pos do
          Alcotest.check read_trace
            (Printf.sprintf "%s over [%d, %d)" name pos (pos + len))
            (read_all reference data ~pos ~len)
            (read_all take data ~pos ~len)
        done
      done)
    readers

let prop_readers_match_reference =
  Testutil.qtest ~count:300 "word-wide readers = per-octet readers"
    QCheck2.Gen.(pair (bytes_gen ~lo:0 ~hi:40) (list_size (int_range 0 12) (int_range 0 3)))
    (fun (data, ops) ->
      (* a mixed sequence of reads, so every alignment is hit *)
      let run u8 u16 u32 i63 =
        let c = Codec.cursor ~fail data in
        let take = function 0 -> u8 c | 1 -> u16 c | 2 -> u32 c | _ -> i63 c in
        List.map
          (fun op ->
            match take op with
            | v -> Ok (v, Codec.pos c)
            | exception Bad m -> Error (m, Codec.pos c))
          ops
      in
      run Codec.take_u8 Codec.take_u16 Codec.take_u32 Codec.take_i63
      = run Codec.take_u8 ref_take_u16 ref_take_u32 ref_take_i63)

let written put v =
  let buf = Buffer.create 8 in
  put buf v;
  Buffer.contents buf

let test_roundtrip_boundaries () =
  let roundtrip name put take width values =
    List.iter
      (fun v ->
        let s = written put v in
        Alcotest.(check int) (Printf.sprintf "%s %#x width" name v) width
          (String.length s);
        let c = Codec.cursor ~fail (Bytes.of_string s) in
        Alcotest.(check int) (Printf.sprintf "%s %#x" name v) v (take c);
        Codec.expect_end c)
      values
  in
  roundtrip "u16" Codec.put_u16 Codec.take_u16 2 [ 0; 1; 0xff; 0x100; 0xffff ];
  roundtrip "u32" Codec.put_u32 Codec.take_u32 4
    [ 0; 0xffff; 0x10000; 0x7fffffff; 0x80000000; 0xffffffff ];
  roundtrip "i63" Codec.put_i63 Codec.take_i63 8
    [ 0; 0xffffffff; 0x100000000; max_int ];
  Alcotest.(check string) "max_int layout" "\x3f\xff\xff\xff\xff\xff\xff\xff"
    (written Codec.put_i63 max_int);
  Alcotest.(check string) "u32 is big-endian" "\x12\x34\x56\x78"
    (written Codec.put_u32 0x12345678)

let test_put_i63_rejects_negative () =
  List.iter
    (fun v ->
      match written Codec.put_i63 v with
      | _ -> Alcotest.failf "put_i63 accepted %d" v
      | exception Invalid_argument _ -> ())
    [ -1; min_int ]

(* every length from one octet to nine, at both ends *)
let test_varint_roundtrip () =
  let values =
    List.concat_map (fun k -> [ (1 lsl (7 * k)) - 1; 1 lsl (7 * k) ]) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  List.iter
    (fun v ->
      let s = written Codec.put_varint v in
      let rec size v = if v < 0x80 then 1 else 1 + size (v lsr 7) in
      Alcotest.(check int) (Printf.sprintf "%#x size" v) (size v) (String.length s);
      let c = Codec.cursor ~fail (Bytes.of_string s) in
      Alcotest.(check int) (Printf.sprintf "%#x" v) v (Codec.take_varint c);
      Codec.expect_end c)
    (0 :: max_int :: values);
  Alcotest.(check string) "300 is two octets, low group first" "\xac\x02"
    (written Codec.put_varint 300);
  Alcotest.(check int) "max_int takes nine octets" 9 (String.length (written Codec.put_varint max_int));
  (match written Codec.put_varint (-1) with
  | _ -> Alcotest.fail "put_varint accepted -1"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun (what, s, msg) ->
      match Codec.take_varint (Codec.cursor ~fail (Bytes.of_string s)) with
      | v -> Alcotest.failf "%s read as %d" what v
      | exception Bad m -> Alcotest.(check string) what msg m)
    [
      ("empty", "", "truncated at octet 0");
      ("cut after a continuation", "\x80", "truncated at octet 1");
      ("overlong zero", "\x80\x00", "overlong varint at octet 0");
      ("overlong one", "\x81\x80\x00", "overlong varint at octet 0");
      ("bit 62", "\xff\xff\xff\xff\xff\xff\xff\xff\x40", "varint at octet 0 exceeds 62 bits");
      ("a tenth octet", "\xff\xff\xff\xff\xff\xff\xff\xff\x80\x01", "varint at octet 0 exceeds 62 bits");
    ]

let sample_entry =
  {
    Collect.Correlator.x_prefix = Prefix.of_string "192.0.2.0/24";
    x_seq = 1;
    x_started = 100;
    x_ended = Some 900;
    x_days = 1;
    x_max_origins = 2;
    x_origins = Asn.Set.of_list [ Asn.make 10; Asn.make 20 ];
    x_clean = false;
    x_seen_by = [ "vp00" ];
    x_first_detect = Some 120;
    x_last_detect = Some 120;
  }

(* the u16 length field describes at most 65,535 octets: one more used to
   be written with its length cut to 16 bits and misframe what followed *)
let test_put_string_length_limit () =
  let longest = String.make 65_535 'x' in
  let s = written Codec.put_string longest in
  Alcotest.(check int) "length field and octets" 65_537 (String.length s);
  let c = Codec.cursor ~fail (Bytes.of_string s) in
  Alcotest.(check string) "65,535 octets round-trip" longest (Codec.take_string c);
  Codec.expect_end c;
  (match written Codec.put_string (String.make 65_536 'x') with
  | s -> Alcotest.failf "65,536 octets written as %d" (String.length s)
  | exception Invalid_argument _ -> ());
  (* the store writes its entry octets once, when it is built *)
  let named name = { sample_entry with Collect.Correlator.x_seen_by = [ name ] } in
  ignore (Collect.Store.of_entries ~vantages:[] [ named longest ]);
  match Collect.Store.of_entries ~vantages:[] [ named (String.make 65_536 'v') ] with
  | _ -> Alcotest.fail "the store built an entry it cannot encode"
  | exception Invalid_argument _ -> ()

(* writers keep the low octets of any int, as the per-octet writers did;
   the in-place writers touch only their own octets *)
let prop_writers_match_reference =
  Testutil.qtest ~count:500 "word-wide writers = per-octet writers"
    QCheck2.Gen.(oneof [ int; int_range 0 0x1ffff; int_range 0 0x1ffffffff ])
    (fun v ->
      let stored set width =
        let b = Bytes.make (width + 2) '\xaa' in
        set b 1 v;
        Bytes.to_string b
      in
      let around s = "\xaa" ^ s ^ "\xaa" in
      written Codec.put_u16 v = written ref_put_u16 v
      && written Codec.put_u32 v = written ref_put_u32 v
      && (v < 0 || written Codec.put_i63 v = written ref_put_i63 v)
      && stored Codec.set_u32 4 = around (written ref_put_u32 v))

(* ---------------- byte pins ---------------- *)

let md5 b = Digest.to_hex (Digest.bytes b)

let collect_smoke_store = Testutil.collect_smoke_store

(* the checkpoint [moas_sim monitor --smoke --checkpoint FILE] writes *)
let monitor_smoke_checkpoint () =
  let monitor = Stream.Sharded.create ~jobs:1 Stream.Monitor.default_config in
  let source =
    Stream.Source.of_archive ~annotate:Stream.Source.fault_annotator
      Measurement.Synthetic_routeviews.smoke_params
  in
  ignore (Stream.Sharded.ingest_source monitor source);
  Stream.Checkpoint.encode (Stream.Sharded.snapshot monitor)

let full_query =
  Collect.Query.(
    empty
    |> prefix (Prefix.of_string "198.51.100.0/24")
    |> covered
    |> origin (Asn.make 65001)
    |> since 86_400 |> until 1_000_000 |> min_visibility 2
    |> bucket Stream.Monitor.Medium)

let frames () =
  let module P = Serve.Proto in
  let store = Lazy.force collect_smoke_store in
  let alert =
    {
      P.al_time = 123_456;
      al_prefix = Prefix.of_string "192.0.2.0/24";
      al_origins = Asn.Set.of_list [ Asn.make 7; Asn.make 65001 ];
      al_kind = P.Flagged;
    }
  in
  let stats =
    {
      P.st_entries = 3821;
      st_vantages = 4;
      st_sessions = 2;
      st_subscriptions = 1;
      st_live_batches = 1279;
      st_live_updates = 16_105;
      st_live_open = 17;
      st_live_days = 1279;
      st_degraded = true;
      st_shed = 3;
      st_timeouts = 1;
      st_evicted = 0;
    }
  in
  let requests =
    [
      ("ping", P.Ping);
      ("query", P.Query full_query);
      ("count", P.Count Collect.Query.empty);
      ("subscribe", P.Subscribe full_query);
      ("unsubscribe", P.Unsubscribe 7);
      ("stats", P.Stats);
    ]
  in
  let responses =
    [
      ("pong", P.Pong);
      ( "entries",
        P.Entries
          {
            vantage_count = List.length (Collect.Store.vantages store);
            entries = Collect.Store.entries store;
          } );
      ("entries-empty", P.Entries { vantage_count = 3; entries = [] });
      ("count_is", P.Count_is 3821);
      ("subscribed", P.Subscribed 1);
      ("unsubscribed", P.Unsubscribed 1);
      ("alert", P.Alert { sub = 1; alert });
      ("stats_are", P.Stats_are stats);
      ("rejected", P.Rejected "overloaded");
    ]
  in
  List.map (fun (k, r) -> ("request " ^ k, P.encode_request r)) requests
  @ List.map (fun (k, r) -> ("response " ^ k, P.encode_response r)) responses

(* ---------------- decoders ---------------- *)

(* An [Entries] frame of [n] distinct vantage names, either one name per
   entry (a decode that shares) or all of them on one entry (one that
   does not): the bounded share tables must keep decoding linear, so ten
   times the names may cost about ten times the time, far from the
   hundred a quadratic table would. *)
let test_distinct_names_decode_linearly () =
  let module P = Serve.Proto in
  let name i = Printf.sprintf "vantage-%06d" i in
  let per_entry n =
    List.init n (fun i -> { sample_entry with Collect.Correlator.x_seq = i; x_seen_by = [ name i ] })
  in
  let one_entry n = [ { sample_entry with Collect.Correlator.x_seen_by = List.init n name } ] in
  List.iter
    (fun (shape, entries) ->
      let frame n = P.encode_response (P.Entries { vantage_count = n; entries = entries n }) in
      let small = frame 2_000 and large = frame 20_000 in
      (match P.decode_response large with
      | P.Entries { entries = es; _ } ->
        Alcotest.(check (list string))
          (shape ^ ": every name decoded")
          (List.concat_map (fun e -> e.Collect.Correlator.x_seen_by) (entries 20_000))
          (List.concat_map (fun e -> e.Collect.Correlator.x_seen_by) es)
      | _ -> Alcotest.fail "not an entries frame");
      let ratio =
        Testutil.best_of_five (fun () -> P.decode_response large)
        /. Testutil.best_of_five (fun () -> P.decode_response small)
      in
      if ratio > 40. then
        Alcotest.failf "%s: 10x the names took %.0fx the time" shape ratio)
    [ ("one name per entry", per_entry); ("20k names on one entry", one_entry) ]

let test_smoke_store_roundtrip () =
  let b = Collect.Store.encode (Lazy.force collect_smoke_store) in
  Alcotest.(check bool) "encode (decode b) = b" true
    (Bytes.equal (Collect.Store.encode (Collect.Store.decode b)) b)

(* ---------------- corruption ---------------- *)

(* Each format's decoder: [Error m] when it raises its own Corrupt. *)
let decoders =
  let store b = match Collect.Store.decode b with _ -> Ok () | exception Collect.Store.Corrupt m -> Error m
  and checkpoint b =
    match Stream.Checkpoint.decode b with _ -> Ok () | exception Stream.Checkpoint.Corrupt m -> Error m
  and request b =
    match Serve.Proto.decode_request b with _ -> Ok () | exception Serve.Proto.Corrupt m -> Error m
  and response b =
    match Serve.Proto.decode_response b with _ -> Ok () | exception Serve.Proto.Corrupt m -> Error m
  in
  [ ("MOASSTOR", store); ("MOASSTRM", checkpoint); ("request", request); ("response", response) ]

(* the smoke store, the smoke checkpoint and every pinned frame, each
   with the decoder of its format *)
let corpus () =
  ("MOASSTOR collect --smoke", List.assoc "MOASSTOR" decoders, Collect.Store.encode (Lazy.force collect_smoke_store))
  :: ("MOASSTRM monitor --smoke", List.assoc "MOASSTRM" decoders, monitor_smoke_checkpoint ())
  :: List.map
       (fun (name, frame) ->
         ("MOASSERV " ^ name, List.assoc (List.hd (String.split_on_char ' ' name)) decoders, frame))
       (frames ())

(* Every octet of every input XORed with one seeded non-zero value, and
   every proper prefix: each must raise its format's Corrupt, and
   nothing else escapes. *)
let test_mutation_sweep () =
  let rng = Random.State.make [| 22 |] in
  List.iter
    (fun (name, decode, data) ->
      let must_fail what b =
        match decode b with
        | Ok () -> Alcotest.failf "%s: %s decoded" name what
        | Error _ -> ()
        | exception e -> Alcotest.failf "%s: %s raised %s" name what (Printexc.to_string e)
      in
      Alcotest.(check bool) (name ^ " decodes") true (decode data = Ok ());
      for i = 0 to Bytes.length data - 1 do
        let b = Bytes.copy data in
        let x = 1 + Random.State.int rng 255 in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor x);
        must_fail (Printf.sprintf "octet %d xor %#x" i x) b;
        must_fail (Printf.sprintf "the first %d octets" i) (Bytes.sub data 0 i)
      done)
    (corpus ())

(* A frame of the version before this one is refused at its header, with
   a message that names both versions. *)
let test_old_version () =
  List.iter
    (fun (name, decode, data) ->
      let magic = Bytes.sub_string data 0 8 and current = Bytes.get_uint8 data 8 in
      let old = Bytes.copy data in
      Bytes.set_uint8 old 8 (current - 1);
      Alcotest.(check (result unit string)) name
        (Error
           (Printf.sprintf "%s version %d is not supported (this build reads version %d)" magic
              (current - 1) current))
        (decode old))
    (corpus ())

(* A name-table count or an entry count of 0xFFFFFFFF, in a frame
   resealed around it, fails at the count check, before anything sized
   by the count is allocated. *)
let test_count_lies () =
  let store = Lazy.force collect_smoke_store in
  let octets put =
    let b = Buffer.create 64 in
    put b;
    Buffer.length b
  in
  let roster = octets (fun b -> Codec.put_list b Codec.put_string (Collect.Store.vantages store)) in
  let names =
    octets (fun b ->
        Collect.Correlator.write_names b
          (Collect.Correlator.name_table
             (List.concat_map (fun e -> e.Collect.Correlator.x_seen_by) (Collect.Store.entries store))))
  in
  let file = Collect.Store.encode store
  and reply =
    Serve.Proto.encode_response
      (Serve.Proto.Entries { vantage_count = 3; entries = Collect.Store.entries store })
  in
  List.iter
    (fun (what, format, data, at) ->
      let lie = Bytes.copy data in
      Alcotest.(check bool) (what ^ " is a small count") true (Bytes.get_int32_be lie at < 100l);
      Bytes.set_int32_be lie at 0xFFFFFFFFl;
      Testutil.reseal lie;
      let before = Gc.minor_words () in
      match List.assoc format decoders lie with
      | Ok () -> Alcotest.failf "%s of 0xFFFFFFFF decoded" what
      | Error m ->
        let words = Gc.minor_words () -. before in
        Testutil.check_contains ~what m "element count 4294967295 exceeds";
        if words > 2_000. then Alcotest.failf "%s: %.0f words allocated before failing" what words)
    [
      ("store name-table count", "MOASSTOR", file, 18 + roster);
      ("store entry count", "MOASSTOR", file, 18 + roster + names);
      ("reply name-table count", "response", reply, 18 + 4);
      ("reply entry count", "response", reply, 18 + 4 + names);
    ]

(* The length of the reply to [min_visibility=2] on the smoke store, in
   this format and in the one before (MOASSERV v3, whose entries carried
   fixed-width fields and every vantage name in full). *)
let smoke_floor2_reply_v3 = 287

let test_reply_length_pin () =
  let store = Lazy.force collect_smoke_store in
  let server = Serve.Server.create ~store () in
  let reply =
    Serve.Server.handle server ~session:(Serve.Server.open_session server)
      (Serve.Proto.encode_request (Serve.Proto.Query Collect.Query.(empty |> min_visibility 2)))
  in
  Alcotest.(check int) "octets of the min_visibility=2 reply" 132 (Bytes.length reply);
  Alcotest.(check bool) "at most half the v3 reply" true
    (2 * Bytes.length reply <= smoke_floor2_reply_v3)

let test_byte_pins () =
  let store = Lazy.force collect_smoke_store in
  Alcotest.(check bool) "the entries frame carries several entries" true
    (Collect.Store.count store >= 3);
  let actual =
    ("MOASSTOR collect --smoke", md5 (Collect.Store.encode store))
    :: ("MOASSTRM monitor --smoke", md5 (monitor_smoke_checkpoint ()))
    :: List.map (fun (name, frame) -> ("MOASSERV " ^ name, md5 frame)) (frames ())
  in
  let pinned =
    [
      ("MOASSTOR collect --smoke", "ea0447e32991ae706f212f79202bda71");
      ("MOASSTRM monitor --smoke", "4efcbbbad17c37ea697413cb924b6839");
      ("MOASSERV request ping", "3a66f347abd853b115e3c9595e9dd42c");
      ("MOASSERV request query", "aa662db0be0498950435460eb4eb8de3");
      ("MOASSERV request count", "7ae954af323828d6f3e6e1e67be0aa8d");
      ("MOASSERV request subscribe", "e24f9561373fc805a8ef87c6b1f07c5f");
      ("MOASSERV request unsubscribe", "9e98bd1906aad333408dba0b3844b4a5");
      ("MOASSERV request stats", "4300ae46c6fa2446c275bb14726b908b");
      ("MOASSERV response pong", "3a66f347abd853b115e3c9595e9dd42c");
      ("MOASSERV response entries", "5d4dd1f0038d9ecbe102ba50df754b3d");
      ("MOASSERV response entries-empty", "e07013062afc94ea9468a214cab24dc6");
      ("MOASSERV response count_is", "0b52a51caf4bfcc472c210c1664cc051");
      ("MOASSERV response subscribed", "24fc33254c771d0c2a042a58b81b5465");
      ("MOASSERV response unsubscribed", "d64f6954b829fad2f602ccf719b2a062");
      ("MOASSERV response alert", "65c147da3fa6bd5faceee742f7cb4130");
      ("MOASSERV response stats_are", "15a3e3a2c228c130e68fb24b73e59413");
      ("MOASSERV response rejected", "3af5bec7d1dec31fd718c192ede48e62");
    ]
  in
  Alcotest.(check (list (pair string string))) "MD5 of every pinned byte string"
    pinned actual

let () =
  Alcotest.run "codec"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          prop_crc_small_ranges;
          prop_crc_large_ranges;
          prop_crc_chaining;
          Alcotest.test_case "out-of-range rejected" `Quick test_crc_out_of_range;
        ] );
      ( "readers",
        [
          Alcotest.test_case "every truncation offset" `Quick
            test_readers_match_reference;
          prop_readers_match_reference;
        ] );
      ( "writers",
        [
          Alcotest.test_case "boundary round-trips" `Quick test_roundtrip_boundaries;
          Alcotest.test_case "put_i63 rejects negatives" `Quick
            test_put_i63_rejects_negative;
          Alcotest.test_case "put_string length limit" `Quick test_put_string_length_limit;
          Alcotest.test_case "varint round-trips and rejections" `Quick test_varint_roundtrip;
          prop_writers_match_reference;
        ] );
      ( "decoders",
        [
          Alcotest.test_case "distinct names decode linearly" `Quick
            test_distinct_names_decode_linearly;
          Alcotest.test_case "smoke store round-trips" `Quick test_smoke_store_roundtrip;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every octet mutated, every prefix cut" `Quick test_mutation_sweep;
          Alcotest.test_case "the previous version is refused" `Quick test_old_version;
          Alcotest.test_case "count lies fail before allocating" `Quick test_count_lies;
        ] );
      ( "pins",
        [
          Alcotest.test_case "byte pins" `Quick test_byte_pins;
          Alcotest.test_case "smoke reply length" `Quick test_reply_length_pin;
        ] );
    ]
