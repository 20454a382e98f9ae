(** Defensive binary codec primitives shared by every length-framed,
    big-endian on-disk and on-wire format in the system
    ({!Stream.Checkpoint} [MOASSTRM], {!Collect.Store} [MOASSTOR],
    {!Collect.Query}, [Serve.Proto] [MOASSERV]).

    Writers append to a [Buffer.t]; readers advance a {!cursor} over
    immutable bytes and report malformed input — truncation, bad tags,
    out-of-range values, trailing octets — through the cursor's [fail]
    callback, so each format surfaces its own [Corrupt] exception while
    sharing one implementation of the framing discipline.

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
(** u16 length, then the raw octets. *)

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

    Computed slice-by-8: eight octets per step through eight 256-entry
    tables built once, with the classic octet-at-a-time loop for the
    last [len mod 8] octets; no octet outside the range is read.  The
    value is the one the octet-at-a-time definition gives.
    @raise Invalid_argument when [pos] or [len] is negative or the range
    runs past the end of the bytes. *)

(** {2 Readers} *)

type cursor
(** A read position over a [pos, limit) window of a byte string, with a
    per-format failure exception.  Slice cursors ({!cursor_slice},
    {!sub_cursor}) share the underlying bytes — decoding an embedded
    region never copies it out first. *)

val cursor : fail:(string -> exn) -> bytes -> cursor
(** [cursor ~fail data] starts at offset 0 over the whole byte string.
    Every malformed-input condition raises [fail message]. *)

val cursor_slice : fail:(string -> exn) -> bytes -> pos:int -> len:int -> cursor
(** A cursor over the [len] octets starting at [pos], without copying.
    @raise Invalid_argument when the slice exceeds the byte string. *)

val sub_cursor : cursor -> int -> cursor
(** [sub_cursor c len] is a child cursor over the next [len] octets of
    [c] (zero-copy view; the replacement for take-bytes copies); [c]
    itself skips past them.  Fails through [c] on truncation. *)

val advance : cursor -> int -> unit
(** Skip [n] octets; fails on truncation. *)

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

val take_string : cursor -> string

val expect_magic : cursor -> string -> unit
(** Consume and check a magic string; fails octet by octet so truncation
    and mismatch both report precisely. *)

val expect_version : cursor -> int -> unit
(** Consume the version octet; fails unless it equals the expected one. *)

val expect_end : cursor -> unit
(** Fails unless the cursor consumed every octet (trailing-octet check). *)
