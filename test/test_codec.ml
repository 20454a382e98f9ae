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
      && stored Codec.set_u16 2 = around (written ref_put_u16 v)
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
      ("MOASSTOR collect --smoke", "1373efd69fe60f0236d66b4cdcc269ba");
      ("MOASSTRM monitor --smoke", "8e1a0f72eab9bd709cf1944d1421371e");
      ("MOASSERV request ping", "b966eba63dbe65de0cb0af5689db046e");
      ("MOASSERV request query", "dfa8d639eccd6d31491b9a87d90600cc");
      ("MOASSERV request count", "f631006f547e0b37d036d2a05a3d4390");
      ("MOASSERV request subscribe", "f9727ffb5e7e0513590bf37e2834a74e");
      ("MOASSERV request unsubscribe", "b04687947f53244adec4202f4e78f8c4");
      ("MOASSERV request stats", "0bf1ece313438c2ea04c0eb07b6c8e55");
      ("MOASSERV response pong", "b966eba63dbe65de0cb0af5689db046e");
      ("MOASSERV response entries", "a5eeb7b2d6b77be95a0512e8d2dc66eb");
      ("MOASSERV response entries-empty", "cf2309951eea0f860fbc76497b0ad4ac");
      ("MOASSERV response count_is", "715c9e98179515ec238dc0f30b60c533");
      ("MOASSERV response subscribed", "2a1a564a98f02f8fd607d8f5bd7e4d43");
      ("MOASSERV response unsubscribed", "4165a5c741934d3fbc7410ed195962b2");
      ("MOASSERV response alert", "f0eb437ce9dd326396afa64dcdaf24d1");
      ("MOASSERV response stats_are", "2c0bf073bea6e35ebc67933a22f51d98");
      ("MOASSERV response rejected", "61509155f1eb065907942d8395964fd8");
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
          prop_writers_match_reference;
        ] );
      ( "decoders",
        [
          Alcotest.test_case "distinct names decode linearly" `Quick
            test_distinct_names_decode_linearly;
          Alcotest.test_case "smoke store round-trips" `Quick test_smoke_store_roundtrip;
        ] );
      ("pins", [ Alcotest.test_case "byte pins" `Quick test_byte_pins ]);
    ]
