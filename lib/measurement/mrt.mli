(** A simplified MRT TABLE_DUMP codec (RFC 6396's TABLE_DUMP type with
    AFI IPv4), the on-disk format of the Oregon RouteViews archive the
    paper mined.

    One record per (prefix, origin) pair: a prefix with several origins in
    a daily dump produces several records, exactly like a collector that
    peers with several routers.  The measurement pipeline can round-trip
    its synthetic dumps through this codec so that the analysis reads the
    same byte format the paper's scripts read. *)

open Net

type record = {
  timestamp : int;  (** seconds; the day offset is used by the generator *)
  peer_as : Asn.t;  (** the feed that contributed the entry *)
  prefix : Prefix.t;
  as_path : Bgp.As_path.t;  (** the path as seen by the collector *)
}

exception Malformed of string
(** Raised on truncated or inconsistent input. *)

val encode_records : record list -> bytes
(** Serialise records back-to-back. *)

val decode_records : bytes -> record list
(** Parse a concatenation of TABLE_DUMP records.  @raise Malformed. *)

val fold_records : bytes -> init:'a -> f:('a -> record -> 'a) -> 'a
(** Streaming fold over a concatenation of TABLE_DUMP records, in file
    order, decoding one record at a time — constant memory beyond the
    input bytes and the accumulator.  [decode_records] is this fold
    building a list.  @raise Malformed. *)

val records_of_table :
  timestamp:int -> (Prefix.t * Asn.Set.t) list -> record list
(** Expand a daily origin-set table into one record per (prefix, origin),
    with the origin standing as both path tail and peer (the collector's
    view of a directly peering origin). *)

val table_of_records : record list -> (Prefix.t * Asn.Set.t) list
(** Group records back into an origin-set table (prefixes sorted).  The
    origin of a record is its AS-path tail. *)
