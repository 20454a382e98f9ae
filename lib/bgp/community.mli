(** BGP community attribute values (RFC 1997): four octets, by convention an
    AS number in the first two and an AS-defined value in the last two.
    The MOAS list of the paper is carried as a set of these. *)

open Net

type t = { asn : Asn.t; value : int }
(** One community value.  [value] is the final two octets. *)

val make : Asn.t -> int -> t
(** [make asn value] validates [value] against the 16-bit range.
    @raise Invalid_argument outside [0,65535]. *)

val compare : t -> t -> int
(** Order by AS, then value. *)

val equal : t -> t -> bool
(** Equality. *)

val to_string : t -> string
(** ["<asn>:<value>"] in the conventional notation, except for the
    assigned well-known values of the RFC 1997 reserved range
    (65535:65281 and friends), which render by name — ["NO_EXPORT"],
    ["NO_ADVERTISE"], ["NO_EXPORT_SUBCONFED"], ["BLACKHOLE"] — so
    experiment reports stay readable. *)

(** {2 Well-known values} *)

val well_known_asn : Asn.t
(** 65535, the RFC 1997 reserved first-two-octets. *)

val no_export : t
(** 65535:65281 (RFC 1997 NO_EXPORT). *)

val no_advertise : t
(** 65535:65282 (RFC 1997 NO_ADVERTISE). *)

val no_export_subconfed : t
(** 65535:65283 (RFC 1997 NO_EXPORT_SUBCONFED). *)

val blackhole : t
(** 65535:666 (RFC 7999 BLACKHOLE). *)

module Set : Set.S with type elt = t
