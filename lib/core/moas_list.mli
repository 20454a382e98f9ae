(** The MOAS list (Section 4.1-4.2): the set of ASes entitled to originate
    a prefix, carried in the BGP community attribute.  One of the 2^16
    values of the community's final two octets is reserved to mean "the AS
    in the first two octets may originate this route"; the paper calls it
    [MLVal]. *)

open Net

val ml_val : int
(** The reserved MOAS List Value (an arbitrary but fixed 16-bit constant,
    as the paper leaves the concrete value to IANA). *)

val encode : Asn.Set.t -> Bgp.Community.Set.t
(** The communities encoding a MOAS list. *)

val decode : Bgp.Community.Set.t -> Asn.Set.t option
(** Extract the MOAS list from a route's communities; [None] when no
    [MLVal] community is present (the route carries no list). *)

val attach : Asn.Set.t -> Bgp.Community.Set.t -> Bgp.Community.Set.t
(** Add a MOAS list to existing communities, replacing any previous list. *)

val strip : Bgp.Community.Set.t -> Bgp.Community.Set.t
(** Remove every [MLVal] community (a router dropping the optional
    attribute, or an attacker erasing the list). *)

val effective : self:Asn.t -> Bgp.Route.t -> Asn.Set.t
(** The list a checker must use for a route: the decoded MOAS list, or the
    implicit singleton [{origin AS}] when the route carries none (the
    paper's footnote 3).  [self] resolves the origin of locally originated
    routes. *)

val consistent : Asn.Set.t -> Asn.Set.t -> bool
(** Set equality: the paper's consistency criterion — same ASes, order
    irrelevant. *)

val all_consistent : Asn.Set.t list -> bool
(** Whether every list in a collection agrees ([true] for zero or one). *)

val self_consistent : self:Asn.t -> Bgp.Route.t -> bool
(** Whether the route's own origin appears in the list it carries — a
    purely local sanity check that catches an attacker announcing a list
    that omits itself. *)

val to_string : Asn.Set.t -> string
(** E.g. ["{AS1,AS2}"]. *)
