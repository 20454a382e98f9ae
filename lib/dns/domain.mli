(** DNS domain names for the MOASRR substrate (paper Section 4.4 proposes
    storing origin authorisations in the DNS; Section 2 criticises the
    approach's circular dependency on routing, which {!Resolver} models). *)

type t
(** A fully qualified name; comparison is case-insensitive. *)

val root : t
(** The DNS root ("."). *)

val of_string : string -> t
(** Parse ["www.example.com"] (an optional trailing dot is accepted).
    @raise Invalid_argument on empty labels or labels over 63 octets. *)

val to_string : t -> string
(** Canonical lower-case rendering without the trailing dot (["."] for the
    root). *)

val labels : t -> string list
(** Labels, least significant first (["www"; "example"; "com"]). *)

val parent : t -> t option
(** The name with its first label removed; [None] for the root. *)

val is_suffix : suffix:t -> t -> bool
(** [is_suffix ~suffix name]: [name] equals or lies under [suffix]
    (every name lies under the root). *)

val prepend : string -> t -> t
(** [prepend label name] is [label.name]. *)

val equal : t -> t -> bool
(** Case-insensitive equality. *)

val reverse_of_prefix : Net.Prefix.t -> t
(** The in-addr.arpa name under which a prefix's MOASRR record lives,
    using one label per significant octet: [10.2.0.0/16] maps to
    ["2.10.in-addr.arpa"]. *)

module Map : Map.S with type key = t
