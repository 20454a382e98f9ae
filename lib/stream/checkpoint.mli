(** Binary checkpoint/restore of the full monitor state.

    A checkpoint serialises the canonical {!Monitor.snapshot}, so its
    bytes are independent of shard count and hash-table iteration order:
    the same stream position always produces the same checkpoint file,
    and a monitor restored from it ({!Sharded.of_snapshot}) converges to
    the exact report an uninterrupted run would have produced.

    Format: one {!Net.Codec.Frame} (magic ["MOASSTRM"], version 2,
    kind 1, CRC-32 of kind and payload) whose payload is the snapshot
    fields in order (config, counters, stream clock, per-prefix states,
    closed episodes, windows) using fixed-width big-endian integers. *)

exception Corrupt of string
(** Raised by {!decode}/{!read_file} on a checksum, length or version
    mismatch, and on truncated or inconsistent input. *)

val encode : Monitor.snapshot -> bytes
val decode : bytes -> Monitor.snapshot
(** Inverses of each other. @raise Corrupt on bad input. *)

val write_file : string -> Monitor.snapshot -> unit
val read_file : string -> Monitor.snapshot
(** File wrappers around {!encode}/{!decode}. *)
