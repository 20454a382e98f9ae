(** A BGP route: a prefix plus the path attributes it was announced with. *)

open Net

type origin_attr = Igp | Egp | Incomplete
(** The ORIGIN attribute; lower is preferred (IGP < EGP < INCOMPLETE). *)

val origin_rank : origin_attr -> int
(** Numeric rank for the decision process. *)

type t = {
  prefix : Prefix.t;
  as_path : As_path.t;
  origin : origin_attr;
  learned_from : Asn.t;
      (** The peer the route was received from; the router's own AS number
          for locally originated routes. *)
  local_pref : int;  (** Higher preferred; default 100. *)
  communities : Community.Set.t;
}

val originate :
  ?origin:origin_attr ->
  ?local_pref:int ->
  ?communities:Community.Set.t ->
  ?as_path:As_path.t ->
  self:Asn.t ->
  Prefix.t ->
  t
(** A locally originated route: empty AS path by default — the origin AS is
    prepended when the route is advertised — and [learned_from = self].
    A non-empty [as_path] models path forgery: the speaker pretends it
    learned the route over the given path (Section 4.3's manipulated-path
    attack). *)

val origin_as : self:Asn.t -> t -> Asn.t
(** The origin AS as receivers see it: the AS-path origin, or [self] for a
    locally originated route (empty path). *)

val received : from:Asn.t -> t -> t
(** Stamp a route as learned from a peer: the route itself when it
    already is, as every route {!advertised_by} the peer is. *)

val advertised_by : Asn.t -> t -> t
(** The route as re-announced by an AS: its number prepended to the path,
    stamped as learned from it, which is how every receiver stores it. *)

val with_communities : Community.Set.t -> t -> t
(** Replace the communities. *)

val strip_communities : t -> t
(** Remove all communities, modelling a router that drops the optional
    transitive attribute (the paper's Section 4.3 failure mode). *)

val equal : t -> t -> bool
(** Structural equality on all fields. *)

val filter : (t -> bool) -> t list -> t list
(** [List.filter], calling the predicate in list order, that returns the
    list itself when it keeps every route: a check that drops nothing
    allocates nothing. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering for traces and tests. *)

val to_string : t -> string
(** [Format] of {!pp} as a string. *)
