open Net

type message = {
  withdrawn : Prefix.t list;
  attributes : attributes option;
  nlri : Prefix.t list;
}

and attributes = {
  origin : Route.origin_attr;
  as_path : As_path.t;
  local_pref : int;
  communities : Community.Set.t;
}

exception Malformed of string

let marker_length = 16
let max_message_size = 4096

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ------------------------------------------------------------------ *)
(* Writers, over Net.Codec's big-endian primitives *)

(* A prefix is encoded as its bit length followed by just enough octets. *)
let prefix_octets len = (len + 7) / 8

let put_prefix buf p =
  let len = Prefix.length p in
  Codec.put_u8 buf len;
  let net = Ipv4.to_int (Prefix.network p) in
  for i = 0 to prefix_octets len - 1 do
    Codec.put_u8 buf ((net lsr (24 - (8 * i))) land 0xff)
  done

(* ------------------------------------------------------------------ *)
(* Path attributes *)

let origin_code = function
  | Route.Igp -> 0
  | Route.Egp -> 1
  | Route.Incomplete -> 2

let origin_of_code = function
  | 0 -> Route.Igp
  | 1 -> Route.Egp
  | 2 -> Route.Incomplete
  | c -> malformed "unknown ORIGIN code %d" c

let attr_origin = 1
let attr_as_path = 2
let attr_next_hop = 3
let attr_local_pref = 5
let attr_community = 8

let flag_transitive = 0x40
let flag_optional = 0x80
let flag_extended = 0x10

let put_attribute buf ~flags ~typ body =
  let len = Bytes.length body in
  if len > 0xff then begin
    Codec.put_u8 buf (flags lor flag_extended);
    Codec.put_u8 buf typ;
    Codec.put_u16 buf len
  end
  else begin
    Codec.put_u8 buf flags;
    Codec.put_u8 buf typ;
    Codec.put_u8 buf len
  end;
  Buffer.add_bytes buf body

let encode_as_path path =
  let buf = Buffer.create 32 in
  List.iter
    (function
      | As_path.Seq ases ->
        if List.length ases > 255 then malformed "AS_SEQUENCE too long";
        Codec.put_u8 buf 2;
        Codec.put_u8 buf (List.length ases);
        List.iter (fun a -> Codec.put_u16 buf (Asn.to_int a)) ases
      | As_path.Set s ->
        if Asn.Set.cardinal s > 255 then malformed "AS_SET too long";
        Codec.put_u8 buf 1;
        Codec.put_u8 buf (Asn.Set.cardinal s);
        Asn.Set.iter (fun a -> Codec.put_u16 buf (Asn.to_int a)) s)
    path;
  Buffer.to_bytes buf

let put_attributes buf attrs =
  let body = Buffer.create 64 in
  (* ORIGIN *)
  let b = Buffer.create 1 in
  Codec.put_u8 b (origin_code attrs.origin);
  put_attribute body ~flags:flag_transitive ~typ:attr_origin (Buffer.to_bytes b);
  (* AS_PATH *)
  put_attribute body ~flags:flag_transitive ~typ:attr_as_path
    (encode_as_path attrs.as_path);
  (* NEXT_HOP: the simulator does not model next-hop IPs; 0.0.0.0 *)
  let b = Buffer.create 4 in
  Codec.put_u32 b 0;
  put_attribute body ~flags:flag_transitive ~typ:attr_next_hop (Buffer.to_bytes b);
  (* LOCAL_PREF *)
  let b = Buffer.create 4 in
  Codec.put_u32 b attrs.local_pref;
  put_attribute body ~flags:flag_transitive ~typ:attr_local_pref (Buffer.to_bytes b);
  (* COMMUNITY (optional transitive) *)
  if not (Community.Set.is_empty attrs.communities) then begin
    let b = Buffer.create 16 in
    Community.Set.iter
      (fun c ->
        Codec.put_u16 b (Asn.to_int c.Community.asn);
        Codec.put_u16 b c.Community.value)
      attrs.communities;
    put_attribute body
      ~flags:(flag_optional lor flag_transitive)
      ~typ:attr_community (Buffer.to_bytes b)
  end;
  let body = Buffer.to_bytes body in
  Codec.put_u16 buf (Bytes.length body);
  Buffer.add_bytes buf body

(* ------------------------------------------------------------------ *)
(* Encoding *)

let encode message =
  let payload = Buffer.create 128 in
  (* withdrawn routes *)
  let withdrawn = Buffer.create 32 in
  List.iter (put_prefix withdrawn) message.withdrawn;
  Codec.put_u16 payload (Buffer.length withdrawn);
  Buffer.add_buffer payload withdrawn;
  (* path attributes *)
  (match message.attributes with
  | Some attrs -> put_attributes payload attrs
  | None ->
    if message.nlri <> [] then
      invalid_arg "Wire.encode: NLRI without attributes";
    Codec.put_u16 payload 0);
  (* NLRI *)
  List.iter (put_prefix payload) message.nlri;
  let total = marker_length + 2 + 1 + Buffer.length payload in
  if total > max_message_size then
    invalid_arg "Wire.encode: message exceeds 4096 octets";
  let buf = Buffer.create total in
  for _ = 1 to marker_length do
    Buffer.add_char buf '\xff'
  done;
  Codec.put_u16 buf total;
  Codec.put_u8 buf 2 (* UPDATE *);
  Buffer.add_buffer buf payload;
  Buffer.to_bytes buf

(* Pure size computation mirroring the writers above, octet for octet —
   usable on oversize messages that [encode] would reject. *)
let prefix_wire_size p = 1 + prefix_octets (Prefix.length p)

let as_path_wire_size path =
  List.fold_left
    (fun acc segment ->
      acc + 2
      + 2
        *
        match segment with
        | As_path.Seq ases -> List.length ases
        | As_path.Set s -> Asn.Set.cardinal s)
    0 path

let attribute_wire_size body_len =
  (if body_len > 0xff then 4 else 3) + body_len

let attributes_wire_size attrs =
  2 (* attribute-section length field *)
  + attribute_wire_size 1 (* ORIGIN *)
  + attribute_wire_size (as_path_wire_size attrs.as_path)
  + attribute_wire_size 4 (* NEXT_HOP *)
  + attribute_wire_size 4 (* LOCAL_PREF *)
  +
  if Community.Set.is_empty attrs.communities then 0
  else attribute_wire_size (4 * Community.Set.cardinal attrs.communities)

let encoded_size message =
  marker_length + 2 + 1
  + 2
  + List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 message.withdrawn
  + (match message.attributes with
    | Some attrs -> attributes_wire_size attrs
    | None -> 2)
  + List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 message.nlri

(* ------------------------------------------------------------------ *)
(* Decoding: Net.Codec cursors that fail with [Malformed] *)

let fail m = Malformed m

let take_prefix c =
  let len = Codec.take_u8 c in
  if len > 32 then Codec.corrupt c "prefix length %d" len;
  let net = ref 0 in
  for i = 0 to prefix_octets len - 1 do
    net := !net lor (Codec.take_u8 c lsl (24 - (8 * i)))
  done;
  Prefix.make (Ipv4.of_int !net) len

let take_as_path c ~stop =
  let rec segments acc =
    if Codec.pos c >= stop then List.rev acc
    else begin
      let typ = Codec.take_u8 c in
      let count = Codec.take_u8 c in
      let ases = List.init count (fun _ -> Codec.take_asn c) in
      let segment =
        match typ with
        | 1 -> As_path.Set (Asn.Set.of_list ases)
        | 2 -> As_path.Seq ases
        | t -> Codec.corrupt c "unknown AS_PATH segment type %d" t
      in
      segments (segment :: acc)
    end
  in
  segments []

let take_attributes c ~stop =
  let origin = ref Route.Igp in
  let as_path = ref As_path.empty in
  let local_pref = ref 100 in
  let communities = ref Community.Set.empty in
  while Codec.pos c < stop do
    let flags = Codec.take_u8 c in
    let typ = Codec.take_u8 c in
    let len =
      if flags land flag_extended <> 0 then Codec.take_u16 c
      else Codec.take_u8 c
    in
    let value_end = Codec.pos c + len in
    if value_end > stop then Codec.corrupt c "attribute %d overruns" typ;
    (match typ with
    | t when t = attr_origin -> origin := origin_of_code (Codec.take_u8 c)
    | t when t = attr_as_path -> as_path := take_as_path c ~stop:value_end
    | t when t = attr_next_hop -> ignore (Codec.take_u32 c)
    | t when t = attr_local_pref -> local_pref := Codec.take_u32 c
    | t when t = attr_community ->
      while Codec.pos c < value_end do
        let asn = Codec.take_asn c in
        let v = Codec.take_u16 c in
        communities := Community.Set.add (Community.make asn v) !communities
      done
    | _ ->
      (* skip unknown attributes *)
      if Codec.take_run c len < 0 then Codec.corrupt c "attribute %d overruns" typ);
    if Codec.pos c <> value_end then
      Codec.corrupt c "attribute %d length mismatch" typ
  done;
  {
    origin = !origin;
    as_path = !as_path;
    local_pref = !local_pref;
    communities = !communities;
  }

(* Decode a path-attribute section in place — a slice view over [len]
   octets at [pos], no copy of the blob.  This is the MRT TABLE_DUMP
   record path: the per-record attribute blob parses where it lies
   instead of being wrapped into a rebuilt UPDATE message first. *)
let decode_attributes data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    malformed "attribute slice [%d,%d) out of bounds" pos (pos + len);
  take_attributes (Codec.cursor_slice ~fail data ~pos ~len) ~stop:(pos + len)

let decode data =
  let total = Bytes.length data in
  if total < marker_length + 3 then malformed "shorter than a BGP header";
  let c = Codec.cursor ~fail data in
  for _ = 1 to marker_length do
    if Codec.take_u8 c <> 0xff then malformed "bad marker"
  done;
  let declared = Codec.take_u16 c in
  if declared <> total then malformed "length field %d, actual %d" declared total;
  let typ = Codec.take_u8 c in
  if typ <> 2 then malformed "not an UPDATE (type %d)" typ;
  let withdrawn_len = Codec.take_u16 c in
  let withdrawn_end = Codec.pos c + withdrawn_len in
  let withdrawn = ref [] in
  while Codec.pos c < withdrawn_end do
    withdrawn := take_prefix c :: !withdrawn
  done;
  if Codec.pos c <> withdrawn_end then malformed "withdrawn section overran";
  let attrs_len = Codec.take_u16 c in
  let attrs_end = Codec.pos c + attrs_len in
  let attributes =
    if attrs_len = 0 then None else Some (take_attributes c ~stop:attrs_end)
  in
  if Codec.pos c <> attrs_end then malformed "attribute section overran";
  let nlri = ref [] in
  while Codec.remaining c > 0 do
    nlri := take_prefix c :: !nlri
  done;
  if !nlri <> [] && attributes = None then malformed "NLRI without attributes";
  {
    withdrawn = List.rev !withdrawn;
    attributes;
    nlri = List.rev !nlri;
  }

(* ------------------------------------------------------------------ *)
(* Bridging to the simulator's Update.t *)

let of_update (update : Update.t) =
  match update.Update.payload with
  | Update.Withdraw prefix -> { withdrawn = [ prefix ]; attributes = None; nlri = [] }
  | Update.Announce route ->
    {
      withdrawn = [];
      attributes =
        Some
          {
            origin = route.Route.origin;
            as_path = route.Route.as_path;
            local_pref = route.Route.local_pref;
            communities = route.Route.communities;
          };
      nlri = [ route.Route.prefix ];
    }

let to_updates ~sender message =
  let withdrawals =
    List.map (fun p -> Update.withdraw ~sender p) message.withdrawn
  in
  let announcements =
    match message.attributes with
    | None -> []
    | Some attrs ->
      List.map
        (fun prefix ->
          Update.announce ~sender
            {
              Route.prefix;
              as_path = attrs.as_path;
              origin = attrs.origin;
              learned_from = sender;
              local_pref = attrs.local_pref;
              communities = attrs.communities;
            })
        message.nlri
  in
  withdrawals @ announcements

let update_size update = encoded_size (of_update update)
