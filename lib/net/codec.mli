(** Defensive binary codec primitives shared by every length-framed,
    big-endian on-disk and on-wire format in the system
    ({!Stream.Checkpoint} [MOASSTRM], {!Collect.Store} [MOASSTOR],
    {!Collect.Query}, [Serve.Proto] [MOASSERV], and the BGP UPDATE and
    MRT TABLE_DUMP codecs {!Bgp.Wire} and {!Measurement.Mrt}).

    Writers append to a [Buffer.t]; readers advance a {!cursor} over
    immutable bytes and report malformed input — truncation, bad tags,
    out-of-range values, trailing octets — through the cursor's [fail]
    callback, so each format surfaces its own exception ([Corrupt],
    [Malformed]) while sharing one implementation of the framing
    discipline.

    Multi-octet fields move a word at a time: each writer is one
    big-endian store into the buffer, each reader one bounds check and
    one load.  The bytes are exactly those of the octet-by-octet layout,
    and a short read fails at the same octet, with the same message
    ([truncated at octet N]), as reading it octet by octet. *)

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

(** {2 In-place writers}

    Direct stores into preallocated bytes, for callers that assemble a
    frame in a single allocation (header fields patched after the payload
    is measured) instead of chaining [Buffer.to_bytes] copies. *)

val set_u8 : bytes -> int -> int -> unit
val set_u16 : bytes -> int -> int -> unit
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

val check_crc : cursor -> seed:int -> expect:int -> unit
(** Fail unless {!crc32} over the cursor's {e remaining} octets (chained
    onto [seed]) equals [expect].  The cursor does not advance. *)

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

val skip_string : cursor -> unit
(** Step over one {!take_string} field, failing where it would. *)

val skip_strings : cursor -> unit
(** Step over one [take_list c take_string] field, failing where it
    would. *)

(** {2 Runs of fixed-width fields}

    A hot decoder may read a run of fixed-width fields with one bounds
    check: it takes the run and reads the fields with the [Bytes] getters
    on {!data}.  When a run is short it can {!rewind} to where it began
    and read again with the [take_*] readers, which fail at the octet and
    with the message they always do. *)

val take_run : cursor -> int -> int
(** [take_run c n] consumes the next [n] octets and returns the offset of
    the first one in [data c]; when fewer than [n] remain it returns [-1]
    and does not move. *)

val data : cursor -> bytes
(** The bytes under the cursor.  A decoder reads them; it never writes
    them. *)

val rewind : cursor -> int -> unit
(** [rewind c pos] moves the cursor back to [pos], a {!pos} it has
    already been at.
    @raise Invalid_argument when [pos] lies ahead of the cursor or below
    zero. *)

(** {2 Sharing repeated values}

    A decoder that meets the same octets many times ({e e.g.} the vantage
    names of thousands of entries) can decode them once and hand out the
    same value each time. *)

type 'a share
(** A table of a fixed number of slots from octet strings to values
    decoded from them.  A key may sit in one of two slots picked by its
    hash; a new key fills an empty one of the two or evicts an old key.
    So the table never grows and a lookup costs one hash and at most two
    comparisons of the octets, whatever the input holds: decoding stays
    linear. *)

val share : slots:int -> 'a share
(** An empty table of at least [slots] slots (rounded up to a power of
    two). *)

val take_shared :
  'a share -> 'ctx -> cursor -> skip:(cursor -> unit) -> read:('ctx -> cursor -> 'a) -> 'a
(** [take_shared s ctx c ~skip ~read] steps over one encoded value with
    [skip c], which validates it and fails as [read] would.  If the table
    holds the octets [skip] stepped over, the value decoded from them
    before is returned.  Otherwise [read ctx c] decodes them from the
    same start and the result is remembered.  [ctx] lets [read] take
    state without a closure being allocated per call.
    @raise Invalid_argument when [read] and [skip] consume different
    lengths. *)

val expect_magic : cursor -> string -> unit
(** Consume and check a magic string; fails octet by octet so truncation
    and mismatch both report precisely. *)

val expect_version : cursor -> int -> unit
(** Consume the version octet; fails unless it equals the expected one. *)

val expect_end : cursor -> unit
(** Fails unless the cursor consumed every octet (trailing-octet check). *)
