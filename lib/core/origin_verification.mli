(** The origin-verification step of Section 4.4: once an alarm is raised,
    the router (or operator) determines which origin ASes are entitled to
    the prefix.  The paper proposes a DNS lookup of a [MOASRR] resource
    record; here the DNS is modelled as an authoritative registry with
    query accounting, which preserves the interface while letting the
    benchmarks count how often BGP would actually hit the DNS (the paper's
    point: only on conflicts). *)

open Net

type t
(** A registry instance (one global DNS, shared by every router). *)

val create : unit -> t
(** An empty registry. *)

val register : t -> Prefix.t -> Asn.Set.t -> unit
(** Record the entitled origin set for a prefix (overwrites). *)

val query : t -> Prefix.t -> Asn.Set.t option
(** Look up the MOASRR record, counting the query; [None] when the prefix
    has no record (verification impossible — the checker must fail open). *)

val entitled : t -> Prefix.t -> Asn.t -> bool
(** [entitled t p asn] — counts one query; [false] when no record exists
    or the AS is absent from it. *)

val query_count : t -> int
(** Number of counted lookups so far. *)
