(** RFC 4271 wire format for BGP UPDATE messages, restricted to the
    attributes this reproduction models (ORIGIN, AS_PATH, NEXT_HOP,
    LOCAL_PREF, COMMUNITY).

    The codec serves two purposes: it makes the Section 4.3 overhead
    discussion exact (update sizes in actual octets rather than counted
    communities), and it backs the MRT-style table dumps of the
    measurement pipeline.  Encoding followed by decoding is the identity
    on the modelled fields (property-tested). *)

open Net

type message = {
  withdrawn : Prefix.t list;  (** withdrawn routes *)
  attributes : attributes option;  (** present when NLRI is announced *)
  nlri : Prefix.t list;  (** announced prefixes sharing the attributes *)
}

and attributes = {
  origin : Route.origin_attr;
  as_path : As_path.t;
  local_pref : int;
  communities : Community.Set.t;
}

exception Malformed of string
(** Raised by the decoder on truncated or inconsistent input. *)

val encode : message -> bytes
(** Serialise a full BGP message (16-byte marker, length, type 2 header
    included).  @raise Invalid_argument if the message exceeds the 4096
    octet maximum. *)

val decode : bytes -> message
(** Parse a full BGP UPDATE message. @raise Malformed on bad input. *)

val decode_attributes : bytes -> pos:int -> len:int -> attributes
(** Parse a bare path-attribute section (the payload of the UPDATE's
    attribute block, or an MRT TABLE_DUMP record's attribute blob) in
    place, as a zero-copy slice view.  Unknown attribute types are
    skipped; absent attributes take their defaults (empty AS_PATH, IGP
    origin, LOCAL_PREF 100, no communities).  @raise Malformed on bad
    input. *)

val encoded_size : message -> int
(** [Bytes.length (encode m)] computed arithmetically, without building
    the buffer.  Unlike {!encode} it does not enforce the 4096-octet
    maximum, so callers can size a message before deciding to split it
    (property-tested: encoding succeeds exactly when the result is at
    most {!max_message_size}). *)

val of_update : Update.t -> message
(** The wire message carrying one simulator UPDATE. *)

val to_updates : sender:Asn.t -> message -> Update.t list
(** Expand a wire message into simulator UPDATEs (one per withdrawn prefix
    and one per NLRI).  Routes are stamped as learned from [sender]. *)

val update_size : Update.t -> int
(** Exact octet size of the message carrying one simulator UPDATE. *)

val marker_length : int
(** 16, the header marker size. *)

val max_message_size : int
(** 4096 octets (RFC 4271). *)
