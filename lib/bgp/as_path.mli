(** BGP AS_PATH attribute: an ordered list of segments, where a segment is
    either an AS_SEQUENCE (ordered traversal) or an AS_SET (unordered, the
    result of route aggregation — the paper's footnote 1). *)

open Net

type segment =
  | Seq of Asn.t list  (** AS_SEQUENCE; most recent AS first *)
  | Set of Asn.Set.t   (** AS_SET from aggregation *)

type t = segment list
(** The path; the head segment is nearest to the speaker, the origin AS is
    at the tail. *)

val empty : t
(** Path of a locally originated route. *)

val of_list : Asn.t list -> t
(** A single AS_SEQUENCE. *)

val prepend : Asn.t -> t -> t
(** [prepend asn p] is the path announced by [asn] after learning [p]:
    [asn] is pushed onto the head sequence (or a new one). *)

val length : t -> int
(** Path length for the decision process: each AS in a sequence counts 1,
    an entire AS_SET counts 1 (RFC 4271 semantics). *)

val contains : t -> Asn.t -> bool
(** Loop detection: whether the AS appears anywhere in the path. *)

val origin_as : t -> Asn.t option
(** The origin: last AS of the final sequence; [None] for an empty path or
    when the path ends in an AS_SET (ambiguous origin after aggregation). *)

val origin_or : default:Asn.t -> t -> Asn.t
(** [origin_as] with [default] for [None], allocating nothing: the form
    the decision process and the MOAS check call on every route. *)

val origin_candidates : t -> Asn.Set.t
(** Possible origins: the singleton origin, or the members of the trailing
    AS_SET, or empty for the empty path. *)

val ases : t -> Asn.Set.t
(** Every AS mentioned in the path. *)

val aggregate : t -> t -> t
(** Combine two paths as route aggregation would: the longest common head
    sequence followed by an AS_SET of the remaining ASes. *)

val equal : t -> t -> bool
(** Segment-wise equality; AS_SETs are equal when they have the same
    members, however they were built. *)

val compare : t -> t -> int
(** Total order consistent with {!equal}: sequences before sets,
    lexicographic within and across segments, AS_SETs by
    {!Net.Asn.Set.compare}. *)

val to_string : t -> string
(** E.g. ["3 2 1"] or ["3 {1,2}"]. *)

val pp : Format.formatter -> t -> unit
(** Pretty printer. *)
