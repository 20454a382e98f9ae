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

let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
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

let check_crc c ~seed ~expect =
  let actual = crc32 ~seed c.data ~pos:c.pos ~len:(remaining c) in
  if actual <> expect then
    corrupt c "frame checksum mismatch (header %08x, computed %08x)" expect
      actual

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

let take_prefix c =
  let net = take_u32 c in
  let len = take_u8 c in
  if len > 32 then corrupt c "prefix length %d" len;
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

let skip_string c =
  let n = take_u16 c in
  if c.pos + n > c.limit then corrupt c "truncated string at %d" c.pos;
  c.pos <- c.pos + n

let skip_strings c =
  let n = take_u32 c in
  check_count c ~elt_size:1 n;
  for _ = 1 to n do
    skip_string c
  done

let data c = c.data

let rewind c pos =
  if pos < 0 || pos > c.pos then invalid_arg "Net.Codec.rewind: not a position already passed";
  c.pos <- pos

let take_run c n =
  if n < 0 || c.limit - c.pos < n then -1
  else begin
    let o = c.pos in
    c.pos <- o + n;
    o
  end

(* A table of a fixed number of slots from octet strings to the values
   decoded from them.  A key may sit in one of two slots, picked by two
   parts of one hash: a miss fills an empty one of the two, else evicts
   the first.  So the table never grows, a lookup costs one hash and at
   most two comparisons of the octets whatever the input holds, and a
   few keys that meet in one slot do not evict each other. *)
type 'a share = { keys : string array; values : 'a option array; mask : int }

let share ~slots =
  let n = ref 2 in
  while !n < slots do
    n := 2 * !n
  done;
  { keys = Array.make !n ""; values = Array.make !n None; mask = !n - 1 }

(* Eight octets at a time, the last word overlapping the one before it;
   each word's high half is folded into its low half before the multiply,
   so every octet reaches the bits a slot is taken from. *)
let mix h w = (h lxor w lxor (w lsr 32)) * 0x2545F4914F6CDD1D

let hash_octets data pos len =
  if len < 8 then begin
    let h = ref len in
    for i = pos to pos + len - 1 do
      h := mix !h (Char.code (Bytes.unsafe_get data i))
    done;
    !h
  end
  else begin
    let h = ref len and i = ref pos in
    while !i + 8 < pos + len do
      h := mix !h (Int64.to_int (Bytes.get_int64_le data !i));
      i := !i + 8
    done;
    mix !h (Int64.to_int (Bytes.get_int64_le data (pos + len - 8)))
  end

let rec equal_short key data pos i len =
  i >= len
  || String.unsafe_get key i = Bytes.unsafe_get data (pos + i)
     && equal_short key data pos (i + 1) len

let equal_octets key data pos len =
  String.length key = len
  &&
  if len < 8 then equal_short key data pos 0 len
  else begin
    let i = ref 0 in
    while !i + 8 < len && String.get_int64_ne key !i = Bytes.get_int64_ne data (pos + !i) do
      i := !i + 8
    done;
    !i + 8 >= len
    && String.get_int64_ne key (len - 8) = Bytes.get_int64_ne data (pos + len - 8)
  end

let found s slot data pos len =
  match s.values.(slot) with
  | Some _ -> equal_octets s.keys.(slot) data pos len
  | None -> false

let take_shared s ctx c ~skip ~read =
  let from = c.pos in
  skip c;
  let stop = c.pos in
  let len = stop - from in
  let h = hash_octets c.data from len in
  let a = (h lsr 32) land s.mask and b = (h lsr 48) land s.mask in
  let hit = if found s a c.data from len then a else if found s b c.data from len then b else -1 in
  if hit >= 0 then Option.get s.values.(hit)
  else begin
    c.pos <- from;
    let v = read ctx c in
    if c.pos <> stop then invalid_arg "Net.Codec.take_shared: read and skip disagree";
    let slot = if Option.is_some s.values.(a) && Option.is_none s.values.(b) then b else a in
    s.keys.(slot) <- Bytes.sub_string c.data from len;
    s.values.(slot) <- Some v;
    v
  end

let expect_magic c magic =
  String.iter
    (fun ch -> if take_u8 c <> Char.code ch then corrupt c "bad magic")
    magic

let expect_version c version =
  let v = take_u8 c in
  if v <> version then corrupt c "unsupported version %d" v

let expect_end c =
  if remaining c <> 0 then corrupt c "%d trailing octets" (remaining c)
