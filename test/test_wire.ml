(* Tests for the RFC 4271 wire codec and the MRT table-dump codec. *)

open Net
module Wire = Bgp.Wire
module Mrt = Measurement.Mrt

let victim = Testutil.victim

let attrs ?(origin = Bgp.Route.Igp) ?(local_pref = 100)
    ?(communities = Bgp.Community.Set.empty) path =
  { Wire.origin; as_path = path; local_pref; communities }

let test_roundtrip_announce () =
  let message =
    {
      Wire.withdrawn = [];
      attributes =
        Some
          (attrs
             ~communities:(Testutil.moas_communities [ 1; 2 ])
             (Bgp.As_path.of_list [ 3; 2; 1 ]));
      nlri = [ victim ];
    }
  in
  let decoded = Wire.decode (Wire.encode message) in
  Alcotest.(check bool) "roundtrip announce" true (decoded = message)

let test_roundtrip_withdraw () =
  let message =
    {
      Wire.withdrawn = [ victim; Prefix.of_string "10.0.0.0/8" ];
      attributes = None;
      nlri = [];
    }
  in
  Alcotest.(check bool) "roundtrip withdraw" true
    (Wire.decode (Wire.encode message) = message)

let test_roundtrip_as_set () =
  let path =
    [ Bgp.As_path.Seq [ 7; 5 ]; Bgp.As_path.Set (Asn.Set.of_list [ 1; 2 ]) ]
  in
  let message =
    { Wire.withdrawn = []; attributes = Some (attrs path); nlri = [ victim ] }
  in
  let decoded = Wire.decode (Wire.encode message) in
  match decoded.Wire.attributes with
  | Some a -> Alcotest.(check bool) "AS_SET survives" true (a.Wire.as_path = path)
  | None -> Alcotest.fail "attributes lost"

let test_prefix_packing () =
  (* a /8 needs one octet of network, a /24 three, a /0 none *)
  let size len =
    let p = Prefix.make (Ipv4.of_string "10.2.3.0") len in
    Wire.encoded_size { Wire.withdrawn = [ p ]; attributes = None; nlri = [] }
  in
  Alcotest.(check int) "/8 vs /0 differ by one octet" 1 (size 8 - size 0);
  Alcotest.(check int) "/24 vs /8 differ by two octets" 2 (size 24 - size 8);
  Alcotest.(check int) "/9 rounds up to two octets" (size 16) (size 9)

let test_header_and_limits () =
  let message = { Wire.withdrawn = [ victim ]; attributes = None; nlri = [] } in
  let b = Wire.encode message in
  (* marker of 16 0xff octets, then length, then type 2 *)
  for i = 0 to 15 do
    Alcotest.(check char) "marker" '\xff' (Bytes.get b i)
  done;
  Alcotest.(check int) "declared length" (Bytes.length b)
    ((Char.code (Bytes.get b 16) lsl 8) lor Char.code (Bytes.get b 17));
  Alcotest.(check int) "type UPDATE" 2 (Char.code (Bytes.get b 18))

let test_decode_rejects_garbage () =
  List.iter
    (fun (label, bytes) ->
      match Wire.decode bytes with
      | exception Wire.Malformed _ -> ()
      | _ -> Alcotest.failf "%s accepted" label)
    [
      ("empty", Bytes.empty);
      ("short", Bytes.make 10 '\xff');
      ("bad marker", Bytes.make 23 '\x00');
    ]

let test_decode_rejects_truncation () =
  let message =
    {
      Wire.withdrawn = [];
      attributes = Some (attrs (Bgp.As_path.of_list [ 1 ]));
      nlri = [ victim ];
    }
  in
  let b = Wire.encode message in
  let truncated = Bytes.sub b 0 (Bytes.length b - 2) in
  (match Wire.decode truncated with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated message accepted")

let test_update_bridge () =
  let route =
    Testutil.route ~communities:(Testutil.moas_communities [ 4; 226 ]) ~from:9
      [ 9; 4 ]
  in
  let update = Bgp.Update.announce ~sender:(Asn.make 9) route in
  let message = Wire.of_update update in
  let back = Wire.to_updates ~sender:(Asn.make 9) (Wire.decode (Wire.encode message)) in
  match back with
  | [ { Bgp.Update.payload = Bgp.Update.Announce r; _ } ] ->
    Alcotest.(check bool) "path preserved" true
      (Bgp.As_path.equal r.Bgp.Route.as_path route.Bgp.Route.as_path);
    Alcotest.(check bool) "communities preserved" true
      (Bgp.Community.Set.equal r.Bgp.Route.communities route.Bgp.Route.communities)
  | _ -> Alcotest.fail "bridge mismatch"

let test_update_size_overhead () =
  (* the Section 4.3 overhead claim in exact octets: each extra MOAS list
     entry costs exactly 4 octets on the wire *)
  let size n =
    let communities = Testutil.moas_communities (List.init n (fun i -> i + 1)) in
    Wire.update_size
      (Bgp.Update.announce ~sender:(Asn.make 9)
         (Testutil.route ~communities ~from:9 [ 9; 4 ]))
  in
  Alcotest.(check int) "4 octets per entry" 4 (size 2 - size 1);
  Alcotest.(check int) "again" 4 (size 3 - size 2);
  (* the attribute header itself costs 3 octets (flags, type, length) *)
  Alcotest.(check int) "community attribute header" 7 (size 1 - size 0)

(* A withdrawn-routes-only message of exactly [target] encoded octets:
   the empty message costs 23 (marker 16 + length 2 + type 1 + two empty
   section length fields), each /32 withdrawal 5, and shorter masks pad
   out the remainder (/24 = 4, /16 = 3, /8 = 2, /0 = 1). *)
let message_of_size target =
  let base = 23 in
  if target < base then invalid_arg "message_of_size";
  let rec fill acc remaining i =
    if remaining = 0 then acc
    else if remaining >= 5 then
      fill (Prefix.make (Ipv4.of_int i) 32 :: acc) (remaining - 5) (i + 1)
    else
      let len = [| 0; 0; 8; 16; 24 |].(remaining) in
      fill (Prefix.make (Ipv4.of_int 0) len :: acc) 0 i
  in
  { Wire.withdrawn = fill [] (target - base) 1; attributes = None; nlri = [] }

let test_max_size_boundary () =
  (* exactly 4096 octets encodes; one more raises *)
  let at_max = message_of_size Wire.max_message_size in
  Alcotest.(check int) "sized to the maximum" Wire.max_message_size
    (Wire.encoded_size at_max);
  let b = Wire.encode at_max in
  Alcotest.(check int) "encodes at exactly 4096" Wire.max_message_size
    (Bytes.length b);
  Alcotest.(check bool) "and still decodes" true
    (Wire.decode b = at_max);
  let over = message_of_size (Wire.max_message_size + 1) in
  Alcotest.(check int) "sized one octet over" (Wire.max_message_size + 1)
    (Wire.encoded_size over);
  match Wire.encode over with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "4097-octet message accepted"

let prop_boundary_exact =
  Testutil.qtest ~count:200 "encode succeeds exactly up to 4096 octets"
    (QCheck2.Gen.int_range 23 4200)
    (fun target ->
      let m = message_of_size target in
      Wire.encoded_size m = target
      &&
      match Wire.encode m with
      | b -> target <= Wire.max_message_size && Bytes.length b = target
      | exception Invalid_argument _ -> target > Wire.max_message_size)

let message_gen =
  QCheck2.Gen.(
    let path_gen =
      map
        (fun ases -> Bgp.As_path.of_list ases)
        (list_size (int_range 1 6) Testutil.asn_gen)
    in
    let prefixes = list_size (int_range 0 5) Testutil.prefix_gen in
    map3
      (fun withdrawn nlri (path, communities, lp) ->
        if nlri = [] then { Wire.withdrawn; attributes = None; nlri = [] }
        else
          {
            Wire.withdrawn;
            attributes =
              Some
                {
                  Wire.origin = Bgp.Route.Igp;
                  as_path = path;
                  local_pref = lp;
                  communities = Moas.Moas_list.encode communities;
                };
            nlri;
          })
      prefixes prefixes
      (triple path_gen Testutil.asn_set_gen (int_range 0 1000)))

let prop_wire_roundtrip =
  Testutil.qtest ~count:300 "wire encode/decode roundtrip" message_gen
    (fun message -> Wire.decode (Wire.encode message) = message)

let prop_encoded_size_exact =
  Testutil.qtest ~count:300 "encoded_size equals the buffer length"
    message_gen
    (fun message -> Wire.encoded_size message = Bytes.length (Wire.encode message))

(* ---------------- community attribute ---------------- *)

(* Arbitrary community sets — not just MOAS lists: the usage-policy model
   tags routes with location/ingress/blackhole values anywhere in the
   16-bit × 16-bit space, and all of them must survive the wire. *)
let community_set_gen =
  QCheck2.Gen.(
    map
      (fun pairs ->
        List.fold_left
          (fun acc (asn, value) ->
            Bgp.Community.Set.add (Bgp.Community.make (Asn.make asn) value) acc)
          Bgp.Community.Set.empty pairs)
      (list_size (int_range 0 12)
         (pair (int_range 1 65535) (int_range 0 65535))))

let announce_with communities =
  {
    Wire.withdrawn = [];
    attributes = Some (attrs ~communities (Bgp.As_path.of_list [ 3; 2; 1 ]));
    nlri = [ victim ];
  }

let decoded_communities message =
  match (Wire.decode (Wire.encode message)).Wire.attributes with
  | Some a -> a.Wire.communities
  | None -> Alcotest.fail "attributes lost"

let prop_community_roundtrip =
  Testutil.qtest ~count:300 "arbitrary community sets roundtrip"
    community_set_gen
    (fun communities ->
      Bgp.Community.Set.equal communities
        (decoded_communities (announce_with communities)))

(* Every strict prefix of an encoded update must be rejected: the header
   declares the total length, so a truncated community attribute can
   never be silently read as a shorter valid set. *)
let prop_community_truncation_rejected =
  Testutil.qtest ~count:60 "truncating a community-bearing update is Malformed"
    community_set_gen
    (fun communities ->
      let b = Wire.encode (announce_with communities) in
      let ok = ref true in
      for cut = 0 to Bytes.length b - 1 do
        (match Wire.decode (Bytes.sub b 0 cut) with
        | exception Wire.Malformed _ -> ()
        | _ -> ok := false)
      done;
      !ok)

let test_community_empty_and_maximal () =
  (* the empty set costs nothing on the wire and decodes back empty *)
  let empty = announce_with Bgp.Community.Set.empty in
  Alcotest.(check int) "empty set adds no octets"
    (Wire.encoded_size empty)
    (Wire.encoded_size (announce_with (Testutil.moas_communities [])));
  Alcotest.(check bool) "empty set roundtrips" true
    (Bgp.Community.Set.is_empty (decoded_communities empty));
  (* the maximal set: the largest community count that still fits the
     4096-octet ceiling roundtrips intact, one more value refuses to
     encode *)
  let set_of n =
    List.fold_left
      (fun acc i ->
        Bgp.Community.Set.add
          (Bgp.Community.make (Asn.make (1 + (i lsr 8))) (i land 0xff))
          acc)
      Bgp.Community.Set.empty
      (List.init n (fun i -> i))
  in
  let fits n = Wire.encoded_size (announce_with (set_of n)) <= Wire.max_message_size in
  let rec search lo hi =
    (* invariant: fits lo, not (fits hi) *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fits mid then search mid hi else search lo mid
  in
  let max_n = search 0 2048 in
  Alcotest.(check bool) "maximal set is large" true (max_n > 900);
  let maximal = set_of max_n in
  Alcotest.(check int) "maximal cardinality" max_n
    (Bgp.Community.Set.cardinal maximal);
  Alcotest.(check bool) "maximal set roundtrips" true
    (Bgp.Community.Set.equal maximal
       (decoded_communities (announce_with maximal)));
  match Wire.encode (announce_with (set_of (max_n + 1))) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized community set accepted"

(* ---------------- MRT ---------------- *)

let test_mrt_roundtrip () =
  let records =
    [
      {
        Mrt.timestamp = 12345;
        peer_as = Asn.make 4;
        prefix = victim;
        as_path = Bgp.As_path.of_list [ 4 ];
      };
      {
        Mrt.timestamp = 12345;
        peer_as = Asn.make 226;
        prefix = Prefix.of_string "10.0.0.0/8";
        as_path = Bgp.As_path.of_list [ 226; 7 ];
      };
    ]
  in
  let decoded = Mrt.decode_records (Mrt.encode_records records) in
  Alcotest.(check bool) "mrt roundtrip" true (decoded = records)

let test_mrt_table_roundtrip () =
  let table =
    [
      (victim, Asn.Set.of_list [ 4; 226 ]);
      (Prefix.of_string "10.0.0.0/8", Asn.Set.singleton 7);
    ]
  in
  let records = Mrt.records_of_table ~timestamp:0 table in
  Alcotest.(check int) "one record per (prefix, origin)" 3 (List.length records);
  let back = Mrt.table_of_records (Mrt.decode_records (Mrt.encode_records records)) in
  Alcotest.(check bool) "origin sets recovered" true
    (List.map (fun (p, s) -> (Prefix.to_string p, Asn.Set.elements s)) back
    = List.map
        (fun (p, s) -> (Prefix.to_string p, Asn.Set.elements s))
        (List.sort (fun (a, _) (b, _) -> Prefix.compare a b) table))

let test_mrt_through_measurement () =
  (* serialize one synthetic daily dump to MRT and re-extract the MOAS
     counts from the parsed bytes: the full paper pipeline over the wire *)
  let params =
    {
      Measurement.Synthetic_routeviews.default_params with
      Measurement.Synthetic_routeviews.universe_size = 400;
      initial_long_lived = 60;
      final_long_lived = 130;
      one_day_churn = 20;
      medium_churn = 10;
      event_1998_size = 110;
      event_2001_size = 90;
    }
  in
  match Testutil.dump_seq params () with
  | Seq.Nil -> Alcotest.fail "no dump"
  | Seq.Cons (dump, _) ->
    let table = dump.Testutil.table in
    let bytes =
      Mrt.encode_records (Mrt.records_of_table ~timestamp:0 table)
    in
    let reparsed = Mrt.table_of_records (Mrt.decode_records bytes) in
    let moas_count t =
      List.length (List.filter (fun (_, o) -> Asn.Set.cardinal o > 1) t)
    in
    Alcotest.(check int) "MOAS count survives the wire" (moas_count table)
      (moas_count reparsed);
    Alcotest.(check int) "prefix count survives" (List.length table)
      (List.length reparsed)

let test_mrt_rejects_garbage () =
  (match Mrt.decode_records (Bytes.make 7 'x') with
  | exception Mrt.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage accepted")

let test_mrt_fold_streaming () =
  (* fold_records visits the same records, in file order, as
     decode_records builds — and can aggregate without the list *)
  let records =
    List.init 40 (fun i ->
        {
          Mrt.timestamp = 1000 + i;
          peer_as = Asn.make (1 + (i mod 5));
          prefix = Prefix.make (Ipv4.of_int (i * 65536)) 16;
          as_path = Bgp.As_path.of_list [ 1 + (i mod 5); 100 + i ];
        })
  in
  let bytes = Mrt.encode_records records in
  let folded =
    List.rev (Mrt.fold_records bytes ~init:[] ~f:(fun acc r -> r :: acc))
  in
  Alcotest.(check bool) "fold visits exactly the decoded records" true
    (folded = Mrt.decode_records bytes);
  let count = Mrt.fold_records bytes ~init:0 ~f:(fun n _ -> n + 1) in
  Alcotest.(check int) "count without building a list" 40 count;
  (* a truncated stream fails the same way *)
  match
    Mrt.fold_records (Bytes.sub bytes 0 (Bytes.length bytes - 1)) ~init:0
      ~f:(fun n _ -> n + 1)
  with
  | exception Mrt.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated stream accepted"

let () =
  Alcotest.run "wire"
    [
      ( "bgp wire",
        [
          Alcotest.test_case "announce roundtrip" `Quick test_roundtrip_announce;
          Alcotest.test_case "withdraw roundtrip" `Quick test_roundtrip_withdraw;
          Alcotest.test_case "AS_SET roundtrip" `Quick test_roundtrip_as_set;
          Alcotest.test_case "prefix packing" `Quick test_prefix_packing;
          Alcotest.test_case "header layout" `Quick test_header_and_limits;
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "truncation rejected" `Quick test_decode_rejects_truncation;
          Alcotest.test_case "update bridge" `Quick test_update_bridge;
          Alcotest.test_case "overhead in octets" `Quick test_update_size_overhead;
          Alcotest.test_case "4096-octet boundary" `Quick test_max_size_boundary;
          Alcotest.test_case "community empty/maximal sets" `Quick
            test_community_empty_and_maximal;
        ] );
      ( "mrt",
        [
          Alcotest.test_case "record roundtrip" `Quick test_mrt_roundtrip;
          Alcotest.test_case "table roundtrip" `Quick test_mrt_table_roundtrip;
          Alcotest.test_case "measurement through MRT" `Quick test_mrt_through_measurement;
          Alcotest.test_case "garbage rejected" `Quick test_mrt_rejects_garbage;
          Alcotest.test_case "streaming fold" `Quick test_mrt_fold_streaming;
        ] );
      ( "properties",
        [
          prop_wire_roundtrip;
          prop_encoded_size_exact;
          prop_boundary_exact;
          prop_community_roundtrip;
          prop_community_truncation_rejected;
        ] );
    ]
