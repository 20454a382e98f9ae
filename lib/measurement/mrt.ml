open Net

type record = {
  timestamp : int;
  peer_as : Asn.t;
  prefix : Prefix.t;
  as_path : Bgp.As_path.t;
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let mrt_type_table_dump = 12
let mrt_subtype_afi_ipv4 = 1

(* the per-record attribute section reuses the BGP wire codec: ORIGIN,
   AS_PATH, NEXT_HOP, LOCAL_PREF as a standard attribute blob *)
let attribute_blob as_path =
  let message =
    {
      Bgp.Wire.withdrawn = [];
      attributes =
        Some
          {
            Bgp.Wire.origin = Bgp.Route.Igp;
            as_path;
            local_pref = 100;
            communities = Bgp.Community.Set.empty;
          };
      nlri = [];
    }
  in
  let whole = Bgp.Wire.encode message in
  (* strip header (16+2+1) and the withdrawn-length field (2) and the
     attribute-length field (2): keep just the attribute octets *)
  let offset = Bgp.Wire.marker_length + 3 + 2 + 2 in
  Bytes.sub whole offset (Bytes.length whole - offset)

let encode_record r =
  let attrs = attribute_blob r.as_path in
  let buf = Buffer.create (32 + Bytes.length attrs) in
  Codec.put_u32 buf r.timestamp;
  Codec.put_u16 buf mrt_type_table_dump;
  Codec.put_u16 buf mrt_subtype_afi_ipv4;
  (* record body *)
  Codec.put_u16 buf 0 (* view *);
  Codec.put_u16 buf 0 (* sequence *);
  Codec.put_u32 buf (Ipv4.to_int (Prefix.network r.prefix));
  Codec.put_u8 buf (Prefix.length r.prefix);
  Codec.put_u8 buf 1 (* status *);
  Codec.put_u32 buf r.timestamp (* originated *);
  Codec.put_u32 buf 0 (* peer IP: unmodelled *);
  Codec.put_u16 buf (Asn.to_int r.peer_as);
  Codec.put_u16 buf (Bytes.length attrs);
  Buffer.add_bytes buf attrs;
  Buffer.to_bytes buf

let encode_records records =
  let buf = Buffer.create 4096 in
  List.iter (fun r -> Buffer.add_bytes buf (encode_record r)) records;
  Buffer.to_bytes buf

(* decoding reads through a Net.Codec cursor that fails with [Malformed] *)
let decode_record c =
  let timestamp = Codec.take_u32 c in
  let typ = Codec.take_u16 c in
  if typ <> mrt_type_table_dump then malformed "MRT type %d" typ;
  let subtype = Codec.take_u16 c in
  if subtype <> mrt_subtype_afi_ipv4 then malformed "MRT subtype %d" subtype;
  let _view = Codec.take_u16 c in
  let _seq = Codec.take_u16 c in
  let network = Codec.take_u32 c in
  let mask = Codec.take_u8 c in
  if mask > 32 then malformed "mask %d" mask;
  let _status = Codec.take_u8 c in
  let _originated = Codec.take_u32 c in
  let _peer_ip = Codec.take_u32 c in
  let peer_as = Codec.take_asn c in
  let attr_len = Codec.take_u16 c in
  let pos = Codec.take_run c attr_len in
  if pos < 0 then malformed "attributes overrun";
  if attr_len = 0 then malformed "record without attributes";
  (* the attribute blob parses where it lies — a zero-copy slice view,
     no rebuilt UPDATE message, no intermediate buffers *)
  let attrs =
    try Bgp.Wire.decode_attributes (Codec.data c) ~pos ~len:attr_len
    with Bgp.Wire.Malformed m -> malformed "attribute blob: %s" m
  in
  {
    timestamp;
    peer_as;
    prefix = Prefix.make (Ipv4.of_int network) mask;
    as_path = attrs.Bgp.Wire.as_path;
  }

let fold_records data ~init ~f =
  let c = Codec.cursor ~fail:(fun m -> Malformed m) data in
  let rec loop acc =
    if Codec.remaining c = 0 then acc else loop (f acc (decode_record c))
  in
  loop init

let decode_records data =
  List.rev (fold_records data ~init:[] ~f:(fun acc r -> r :: acc))

let records_of_table ~timestamp table =
  List.concat_map
    (fun (prefix, origins) ->
      List.map
        (fun origin ->
          {
            timestamp;
            peer_as = origin;
            prefix;
            as_path = Bgp.As_path.of_list [ origin ];
          })
        (Asn.Set.elements origins))
    table

let table_of_records records =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let origin =
        match Bgp.As_path.origin_as r.as_path with
        | Some o -> o
        | None -> r.peer_as
      in
      let existing =
        Option.value ~default:Asn.Set.empty (Hashtbl.find_opt tbl r.prefix)
      in
      Hashtbl.replace tbl r.prefix (Asn.Set.add origin existing))
    records;
  Hashtbl.fold (fun prefix origins acc -> (prefix, origins) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
