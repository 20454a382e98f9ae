(** Route Origin Authorization registry — the RPKI-style ground-truth
    oracle the classifier trains against.

    A registry is a set of ROAs, each authorising one origin AS to
    announce a prefix and everything down to a maximum length.  Route
    validation follows the RFC 6811 tri-state:

    - {e Unknown} — no ROA covers the route's prefix;
    - {e Valid} — some covering ROA names the route's origin and admits
      its length ([length <= max_length]);
    - {e Invalid} — covered, but no covering ROA matches.

    The type is immutable (a {!Net.Prefix_trie} of ROA lists), so a
    registry can be shared freely across parallel evaluation workers.
    The module also provides a text codec for hand-written registries and
    a seeded synthesiser that turns a (prefix × authorised-origins)
    ground truth — e.g. a {!Collect.Scenario} workload — into a registry
    with configurable coverage, reproducible from a seed. *)

open Net

type roa = {
  roa_prefix : Prefix.t;
  roa_origin : Asn.t;
  roa_max_length : int;  (** in [length roa_prefix, 32] *)
}

type t
(** An immutable ROA registry. *)

type validity = Valid | Invalid | Unknown

val validity_to_string : validity -> string
(** ["valid"], ["invalid"], ["unknown"]. *)

val empty : t

val add : ?max_length:int -> Prefix.t -> Asn.t -> t -> t
(** Authorise an origin for a prefix.  [max_length] defaults to the
    prefix's own length (no longer-prefix announcements allowed), the
    conservative RPKI practice.  Duplicate ROAs collapse.
    @raise Invalid_argument if [max_length] is outside
    [length prefix, 32]. *)

val cardinal : t -> int
(** Number of distinct ROAs. *)

val covering : t -> Prefix.t -> roa list
(** The ROAs whose prefix covers (subsumes) the given route prefix, in
    canonical order — the candidate set RFC 6811 validation consults. *)

val validate : t -> Prefix.t -> Asn.t -> validity
(** RFC 6811 origin validation of one route. *)

val classify_conflict : t -> Prefix.t -> Asn.Set.t -> validity
(** Verdict for a whole MOAS episode: [Unknown] when the prefix is not
    covered, [Invalid] when any origin in the set validates [Invalid],
    [Valid] otherwise — one unauthorised origin poisons the conflict,
    which is exactly the hijack case. *)

(** {2 Text codec}

    One ROA per line, [prefix origin \[max_length\]], with [#] comments
    and blank lines ignored — the hand-written registry format:

    {[
      # victim prefix
      192.0.2.0/24 65001
      198.51.100.0/24 65010 25
    ]} *)

val to_string : t -> string
(** Canonical rendering, one ROA per line (max_length always explicit).
    [of_string (to_string t)] rebuilds an equal registry. *)

val of_string : string -> (t, string) result
(** Parse the text format; the error names the offending line. *)

(** {2 Synthesis} *)

val synthesize :
  ?coverage:float ->
  ?max_length_slack:int ->
  seed:int64 ->
  (Prefix.t * Asn.Set.t) list ->
  t
(** Seeded synthetic registry from ground truth.  Each (prefix,
    authorised origins) pair is registered with probability [coverage]
    (default [1.0]); each issued ROA's [max_length] is the prefix length
    plus a uniform draw from [0, max_length_slack] (default [0]).
    Deterministic from [seed] and the input order. *)
