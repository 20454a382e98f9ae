(** IPv4 addresses as 32-bit values carried in a native [int]. *)

type t = private int
(** An address; the private representation guarantees it fits in 32 bits. *)

val of_int : int -> t
(** [of_int n] for [0 <= n <= 0xffffffff].
    @raise Invalid_argument outside that range. *)

val to_int : t -> int
(** Unsigned integer value in [0, 2^32). *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] builds [a.b.c.d].
    @raise Invalid_argument if an octet is outside [0,255]. *)

val to_octets : t -> int * int * int * int
(** Dotted-quad decomposition. *)

val of_string : string -> t
(** Parse dotted-quad notation. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Dotted-quad notation. *)

val compare : t -> t -> int
(** Unsigned ordering. *)

val equal : t -> t -> bool
(** Equality. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] counted from the most significant bit (bit 0). *)
