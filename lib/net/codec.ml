(* Shared writers/readers for the MOASSTRM/MOASSTOR/MOASSERV family of
   binary formats and the BGP/MRT codecs.  See codec.mli for the
   discipline. *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

(* one big-endian store per field, of the value's low 16 or 32 bits *)
let put_u16 buf v = Buffer.add_uint16_be buf (v land 0xffff)
let put_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let put_i63 buf v =
  if v < 0 then invalid_arg "Net.Codec: negative integer";
  Buffer.add_int64_be buf (Int64.of_int v)

let put_bool buf b = put_u8 buf (if b then 1 else 0)
let put_asn buf a = put_u16 buf (Asn.to_int a)

let put_asn_set buf s =
  put_u32 buf (Asn.Set.cardinal s);
  Asn.Set.iter (put_asn buf) s

let put_prefix buf p =
  put_u32 buf (Ipv4.to_int (Prefix.network p));
  put_u8 buf (Prefix.length p)

let put_option buf put = function
  | None -> put_u8 buf 0
  | Some v ->
    put_u8 buf 1;
    put buf v

let put_list buf put l =
  put_u32 buf (List.length l);
  List.iter (put buf) l

(* the u16 length field cannot describe a longer string: writing its low
   16 bits and every octet would misframe everything after it *)
let put_string buf s =
  if String.length s > 0xffff then
    invalid_arg "Net.Codec: string of 65,536 octets or more";
  put_u16 buf (String.length s);
  Buffer.add_string buf s

(* Unsigned LEB128 in its shortest form: seven bits an octet, the low
   group first, the top bit set on every octet but the last. *)
let rec put_varint_from buf v =
  if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7f lor 0x80));
    put_varint_from buf (v lsr 7)
  end

let put_varint buf v =
  if v < 0 then invalid_arg "Net.Codec: negative integer";
  put_varint_from buf v

(* ------------------------------------------------------------------ *)

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for frame
   integrity: any single-octet corruption — any burst up to 32 bits —
   is guaranteed to change the checksum, so a flipped bit can never
   turn one valid frame into a different valid frame.

   Slice-by-16: table [k] (entries [256k .. 256k+255] of one flat array)
   gives the CRC contribution of an octet followed by [k] zero octets, so
   sixteen octets fold into the register with sixteen independent lookups
   instead of sixteen dependent steps.  Table 0 is the classic bytewise
   table, which still consumes the tail shorter than a block. *)

let crc32_tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let crc32 ?(seed = 0) data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Net.Codec.crc32: range out of bounds";
  (* every index below is in range: the range was checked above and each
     table index is masked to one of the sixteen 256-entry tables *)
  let tbl i = Array.unsafe_get crc32_tables i in
  let crc = ref (seed lxor 0xFFFFFFFF) in
  let i = ref pos in
  let blocks_end = pos + (len land lnot 15) in
  while !i < blocks_end do
    let w0 = Bytes.get_int64_le data !i in
    let w1 = Bytes.get_int64_le data (!i + 8) in
    let c = !crc lxor (Int64.to_int w0 land 0xFFFFFFFF) in
    let h0 = Int64.to_int (Int64.shift_right_logical w0 32) in
    let l1 = Int64.to_int w1 land 0xFFFFFFFF in
    let h1 = Int64.to_int (Int64.shift_right_logical w1 32) in
    crc :=
      tbl (0xF00 + (c land 0xff))
      lxor tbl (0xE00 + ((c lsr 8) land 0xff))
      lxor tbl (0xD00 + ((c lsr 16) land 0xff))
      lxor tbl (0xC00 + (c lsr 24))
      lxor tbl (0xB00 + (h0 land 0xff))
      lxor tbl (0xA00 + ((h0 lsr 8) land 0xff))
      lxor tbl (0x900 + ((h0 lsr 16) land 0xff))
      lxor tbl (0x800 + (h0 lsr 24))
      lxor tbl (0x700 + (l1 land 0xff))
      lxor tbl (0x600 + ((l1 lsr 8) land 0xff))
      lxor tbl (0x500 + ((l1 lsr 16) land 0xff))
      lxor tbl (0x400 + (l1 lsr 24))
      lxor tbl (0x300 + (h1 land 0xff))
      lxor tbl (0x200 + ((h1 lsr 8) land 0xff))
      lxor tbl (0x100 + ((h1 lsr 16) land 0xff))
      lxor tbl (h1 lsr 24);
    i := !i + 16
  done;
  for j = blocks_end to pos + len - 1 do
    crc :=
      tbl ((!crc lxor Char.code (Bytes.unsafe_get data j)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* Direct writers into preallocated bytes, for callers that assemble a
   frame in place (single allocation, no Buffer-to-bytes copy). *)

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

type cursor = {
  data : bytes;
  mutable pos : int;
  limit : int; (* exclusive upper bound: a slice view decodes [pos, limit) *)
  fail : string -> exn;
}

let cursor ~fail data = { data; pos = 0; limit = Bytes.length data; fail }

let cursor_slice ~fail data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Net.Codec.cursor_slice: slice out of bounds";
  { data; pos; limit = pos + len; fail }

let pos c = c.pos
let remaining c = c.limit - c.pos
let corrupt c fmt = Printf.ksprintf (fun s -> raise (c.fail s)) fmt

let take_u8 c =
  if c.pos >= c.limit then corrupt c "truncated at octet %d" c.pos;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

(* Multi-octet readers: one bounds check and one load.  A field that
   does not fit consumes the octets left in the window and fails at the
   window's end: the octet, and the message, where reading it octet by
   octet would stop. *)
let truncated c =
  c.pos <- c.limit;
  corrupt c "truncated at octet %d" c.limit

let take_u16 c =
  if c.limit - c.pos < 2 then truncated c;
  let v = Bytes.get_uint16_be c.data c.pos in
  c.pos <- c.pos + 2;
  v

let take_u32 c =
  if c.limit - c.pos < 4 then truncated c;
  let v = Int32.to_int (Bytes.get_int32_be c.data c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

(* [Int64.to_int] drops bit 63 of the field and keeps the 63 bits an
   [int] holds *)
let take_i63 c =
  if c.limit - c.pos < 8 then truncated c;
  let v = Int64.to_int (Bytes.get_int64_be c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let take_bool c =
  match take_u8 c with
  | 0 -> false
  | 1 -> true
  | t -> corrupt c "boolean tag %d" t

let take_asn c =
  let v = take_u16 c in
  try Asn.make v with Invalid_argument _ -> corrupt c "AS number %d" v

(* A corrupt element count must fail immediately, not after billions of
   iterations: every element occupies at least [elt_size] octets, so a
   count the remaining input cannot possibly hold is a length lie.  This
   bounds decoder work by the input size whatever the count field says. *)
let check_count c ~elt_size n =
  if n < 0 || n > remaining c / elt_size then
    corrupt c "element count %d exceeds %d remaining octets" n (remaining c)

let take_asn_set c =
  let n = take_u32 c in
  check_count c ~elt_size:2 n;
  let rec loop acc k =
    if k = 0 then acc else loop (Asn.Set.add (take_asn c) acc) (k - 1)
  in
  loop Asn.Set.empty n

(* a prefix has one encoding: host bits set are a corrupt field, not
   bits to mask off *)
let take_prefix c =
  let net = take_u32 c in
  let len = take_u8 c in
  if len > 32 then corrupt c "prefix length %d" len;
  if net land ((1 lsl (32 - len)) - 1) <> 0 then
    corrupt c "prefix %s/%d has host bits set" (Ipv4.to_string (Ipv4.of_int net)) len;
  Prefix.make (Ipv4.of_int net) len

let take_option c take =
  match take_u8 c with
  | 0 -> None
  | 1 -> Some (take c)
  | t -> corrupt c "option tag %d" t

let take_list c take =
  let n = take_u32 c in
  check_count c ~elt_size:1 n;
  let rec loop acc k =
    if k = 0 then List.rev acc else loop (take c :: acc) (k - 1)
  in
  loop [] n

let take_string c =
  let n = take_u16 c in
  if c.pos + n > c.limit then corrupt c "truncated string at %d" c.pos;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* A non-negative [int] holds 62 bits: nine octets carry 63, so the
   ninth must be below 0x40.  A last octet of zero in a longer encoding
   is overlong: each value has one encoding. *)
let rec take_varint_from c start acc shift =
  let b = take_u8 c in
  if shift = 56 && b >= 0x40 then corrupt c "varint at octet %d exceeds 62 bits" start
  else if b < 0x80 then begin
    if b = 0 then corrupt c "overlong varint at octet %d" start;
    acc lor (b lsl shift)
  end
  else take_varint_from c start (acc lor ((b land 0x7f) lsl shift)) (shift + 7)

let take_varint c =
  let b = take_u8 c in
  if b < 0x80 then b else take_varint_from c (c.pos - 1) (b land 0x7f) 7

let data c = c.data

let take_run c n =
  if n < 0 || c.limit - c.pos < n then -1
  else begin
    let o = c.pos in
    c.pos <- o + n;
    o
  end


let expect_end c =
  if remaining c <> 0 then corrupt c "%d trailing octets" (remaining c)

(* ------------------------------------------------------------------ *)
(* The one frame: magic · version · kind · u32 payload length · u32 CRC-32
   of (kind octet ‖ payload) · payload.  The length is redundant with the
   extent of a frame held in memory, but it is what lets a stream
   transport delimit frames, and the reader checks it against the octets
   it has, so a length lie is corruption.  The checksum covers the kind
   octet too, so no single corrupted octet can turn one valid frame into
   a different valid one. *)

module Frame = struct
  type format = { magic : string; version : int; fail : string -> exn }

  let format ~magic ~version ~fail =
    if String.length magic <> 8 then invalid_arg "Net.Codec.Frame.format: magic of 8 octets";
    { magic; version; fail }

  let header_len = 18

  (* the CRC of each kind octet, the seed its payload's CRC chains onto *)
  let kind_crcs = Array.init 256 (fun k -> crc32 (Bytes.make 1 (Char.chr k)) ~pos:0 ~len:1)

  let make f ~kind ~size write =
    let out = Bytes.create (header_len + size) in
    write out header_len;
    Bytes.blit_string f.magic 0 out 0 8;
    Bytes.set_uint8 out 8 f.version;
    Bytes.set_uint8 out 9 kind;
    set_u32 out 10 size;
    set_u32 out 14 (crc32 ~seed:kind_crcs.(kind land 0xff) out ~pos:header_len ~len:size);
    out

  let encode f ~kind put =
    let buf = Buffer.create 64 in
    put buf;
    make f ~kind ~size:(Buffer.length buf) (fun out pos ->
        Buffer.blit buf 0 out pos (Buffer.length buf))

  let open_ f data =
    let c = cursor ~fail:f.fail data in
    String.iter
      (fun ch -> if take_u8 c <> Char.code ch then corrupt c "bad magic: not a %s frame" f.magic)
      f.magic;
    let v = take_u8 c in
    if v <> f.version then
      corrupt c "%s version %d is not supported (this build reads version %d)" f.magic v
        f.version;
    let kind = take_u8 c in
    let len = take_u32 c in
    let expect = take_u32 c in
    if len <> remaining c then
      corrupt c "payload length %d does not match %d remaining octets" len (remaining c);
    let actual = crc32 ~seed:kind_crcs.(kind) data ~pos:c.pos ~len in
    if actual <> expect then
      corrupt c "frame checksum mismatch (header %08x, computed %08x)" expect actual;
    (c, kind)
end
