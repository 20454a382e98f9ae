(** Defensive binary codec primitives shared by every length-framed,
    big-endian on-disk and on-wire format in the system
    ({!Stream.Checkpoint} [MOASSTRM], {!Collect.Store} [MOASSTOR],
    {!Collect.Query}, [Serve.Proto] [MOASSERV], and the BGP UPDATE and
    MRT TABLE_DUMP codecs {!Bgp.Wire} and {!Measurement.Mrt}).

    The three MOAS formats share one container, {!Frame}: magic, version
    octet, kind octet, u32 payload length and a CRC-32 of the kind octet
    and the payload.  Opening a frame checks all five before a payload
    field is read, so a flipped octet, a cut, a length lie or an old
    version is the format's own [Corrupt] error, never a wrong value.

    Writers append to a [Buffer.t]; readers advance a {!cursor} over
    immutable bytes and report malformed input — truncation, bad tags,
    out-of-range values, overlong varints, trailing octets — through the
    cursor's [fail] callback, so each format surfaces its own exception
    ([Corrupt], [Malformed]) while sharing one implementation.

    Fixed-width fields are big-endian and move a word at a time: each
    writer is one store into the buffer, each reader one bounds check
    and one load, failing at the octet, and with the message
    ([truncated at octet N]), an octet-by-octet read stops at.  Counts
    and times inside a record may instead be {!put_varint}s. *)

(** {2 Writers} *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
(** [put_u8], [put_u16] and [put_u32] write the low 8, 16 or 32 bits of
    the value, big-endian. *)

val put_i63 : Buffer.t -> int -> unit
(** Eight octets holding a non-negative OCaml [int] (63-bit payload).
    @raise Invalid_argument on a negative value. *)

val put_bool : Buffer.t -> bool -> unit
val put_asn : Buffer.t -> Asn.t -> unit
val put_asn_set : Buffer.t -> Asn.Set.t -> unit
val put_prefix : Buffer.t -> Prefix.t -> unit

val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
(** Tag octet 0 (absent) or 1 (present, followed by the payload). *)

val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** u32 element count, then the elements in order. *)

val put_string : Buffer.t -> string -> unit
(** u16 length, then the raw octets.
    @raise Invalid_argument on a string of 65,536 octets or more, which
    the length field cannot describe. *)

val put_varint : Buffer.t -> int -> unit
(** A non-negative [int] as shortest-form unsigned LEB128: seven bits an
    octet, low group first, the top bit set on all but the last octet;
    one to nine octets.
    @raise Invalid_argument on a negative value. *)

(** {2 In-place writers}

    Direct stores into preallocated bytes, for callers that assemble a
    frame in a single allocation (header fields patched after the payload
    is measured) instead of chaining [Buffer.to_bytes] copies. *)

val set_u32 : bytes -> int -> int -> unit

(** {2 Frame integrity} *)

val crc32 : ?seed:int -> bytes -> pos:int -> len:int -> int
(** CRC-32 (IEEE 802.3) of [len] octets starting at [pos], as an
    unsigned 32-bit value.  Pass a previous result as [seed] to chain
    regions: [crc32 ~seed:(crc32 a) b] is the CRC of [a] followed by [b].
    Any burst error up to 32 bits — in particular any single-octet
    corruption — is guaranteed to change the result, so a checksummed
    frame can never be silently mutated into a different valid frame.

    Computed slice-by-16: sixteen octets per step through sixteen
    256-entry tables built once, with the classic octet-at-a-time loop
    for the last [len mod 16] octets; no octet outside the range is
    read.  The value is the one the octet-at-a-time definition gives.
    @raise Invalid_argument when [pos] or [len] is negative or the range
    runs past the end of the bytes. *)

(** {2 Readers} *)

type cursor
(** A read position over a [pos, limit) window of a byte string, with a
    per-format failure exception.  Slice cursors ({!cursor_slice}) share
    the underlying bytes — decoding an embedded region never copies it
    out first. *)

val cursor : fail:(string -> exn) -> bytes -> cursor
(** [cursor ~fail data] starts at offset 0 over the whole byte string.
    Every malformed-input condition raises [fail message]. *)

val cursor_slice : fail:(string -> exn) -> bytes -> pos:int -> len:int -> cursor
(** A cursor over the [len] octets starting at [pos], without copying.
    @raise Invalid_argument when the slice exceeds the byte string. *)

val pos : cursor -> int
val remaining : cursor -> int
(** Octets left before the cursor's limit. *)

val corrupt : cursor -> ('a, unit, string, 'b) format4 -> 'a
(** Raise the cursor's failure exception with a formatted message. *)

val take_u8 : cursor -> int
val take_u16 : cursor -> int
val take_u32 : cursor -> int
val take_i63 : cursor -> int
(** [take_u16], [take_u32] and [take_i63] read a whole field with one
    bounds check and one load.  A field that runs past the cursor's
    window consumes what is left of it and fails with
    [truncated at octet N], [N] the window's end: the octet and the
    message an octet-by-octet read stops at. *)

val take_bool : cursor -> bool
val take_asn : cursor -> Asn.t
val take_asn_set : cursor -> Asn.Set.t
val take_prefix : cursor -> Prefix.t
(** Fails on a length above 32 and on host bits set: each prefix has
    one encoding. *)

val take_option : cursor -> (cursor -> 'a) -> 'a option

val take_list : cursor -> (cursor -> 'a) -> 'a list
(** Element counts are sanity-checked against the remaining input before
    any element is decoded (at least one octet per element), so a corrupt
    count field fails immediately instead of looping for up to 2^32
    iterations; same for {!take_asn_set} (two octets per member).
    Decoder work is thereby bounded by the input length whatever the
    count fields claim. *)

val check_count : cursor -> elt_size:int -> int -> unit
(** [check_count c ~elt_size n] fails with
    [element count N exceeds R remaining octets] unless [n] elements of
    at least [elt_size] octets each can fit in what is left: the check
    {!take_list} and {!take_asn_set} make before decoding an element. *)

val take_string : cursor -> string

val take_varint : cursor -> int
(** One {!put_varint} field.  Fails on truncation, on an overlong
    encoding (a last octet of zero after the first) and on a value that
    does not fit 62 bits (a ninth octet of 0x40 or more). *)

(** {2 Runs of fixed-width fields}

    A hot decoder may read a run of fixed-width fields with one bounds
    check: it takes the run and reads the fields with the [Bytes] getters
    on {!data}. *)

val take_run : cursor -> int -> int
(** [take_run c n] consumes the next [n] octets and returns the offset of
    the first one in [data c]; when fewer than [n] remain it returns [-1]
    and does not move. *)

val data : cursor -> bytes
(** The bytes under the cursor.  A decoder reads them; it never writes
    them. *)

val expect_end : cursor -> unit
(** Fails unless the cursor consumed every octet (trailing-octet check). *)

(** {2 The frame}

{v
    offset  size  field
         0     8  magic
         8     1  version
         9     1  kind
        10     4  payload length n, big-endian u32
        14     4  CRC-32 of the kind octet followed by the payload
        18     n  payload
v}

    There is one reader per format version: a frame of any other version
    is [Corrupt], with a message naming both versions. *)

module Frame : sig
  type format
  (** A format's magic, current version and failure exception. *)

  val format : magic:string -> version:int -> fail:(string -> exn) -> format
  (** @raise Invalid_argument unless the magic is 8 octets. *)

  val make : format -> kind:int -> size:int -> (bytes -> int -> unit) -> bytes
  (** [make f ~kind ~size write] is the frame of a [size]-octet payload
      that [write dst pos] puts at [pos] in [dst]: one [bytes] of the
      final size, the header and checksum filled in around the payload. *)

  val encode : format -> kind:int -> (Buffer.t -> unit) -> bytes
  (** The frame of the payload the writer appends. *)

  val open_ : format -> bytes -> cursor * int
  (** Check the magic, the version, the length and the checksum, and
      return a cursor at the payload's first octet, with the kind.  The
      caller reads the payload and ends with {!expect_end}. *)
end
