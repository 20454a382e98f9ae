(** Persistent, queryable store of correlated MOAS episodes.

    The store indexes {!Correlator.entry} records in a {!Net.Prefix_trie},
    so prefix queries (exact or covered/more-specific, the sub-prefix
    hijack shape of paper §4.3) are trie walks rather than scans, and
    keeps the vantage roster so visibility renders as [k/N].

    Every index is built once, when the store is built ({!of_entries},
    which {!of_correlation} and {!decode} go through): the canonical entry
    list, so {!entries} costs nothing; the entries by origin AS; and, for
    each visibility floor [k], the entries seen by at least [k] vantages.
    A store is an immutable value with no incremental insert, so no index
    can go stale.

    On disk it uses the same defensive binary idiom as
    {!Stream.Checkpoint}: magic ["MOASSTOR"], a version octet, big-endian
    fixed-width fields, and a decoder that rejects truncation, trailing
    octets, bad tags and version mismatches with {!Corrupt}. *)

type t
(** An immutable episode store. *)

exception Corrupt of string
(** Raised by {!decode} on malformed input. *)

val empty : vantages:string list -> t
(** An empty store over a vantage roster (names are sorted and deduped). *)

val of_entries : vantages:string list -> Correlator.entry list -> t
(** The store of these entries, in O(n log n): the entries are sorted
    once and grouped by prefix, then the indexes are built.  Entries
    already in canonical order with no repeated key, as a correlation
    and a store file give them, are not sorted again.  Entries with the
    same key (prefix, start time, sequence) collapse to the last one
    given.  {!decode} builds through it, so no input file can make
    decoding quadratic. *)

val of_correlation : Correlator.t -> t
(** Index every entry of a correlation result ({!of_entries}). *)

val vantages : t -> string list
val count : t -> int

val entries : t -> Correlator.entry list
(** All entries in canonical order: trie (network, length) order, then
    (start time, sequence) within a prefix.  O(1): the list is built
    with the store. *)

(** {2 Queries} *)

type query = Query.t
(** The unified typed query ({!Collect.Query}) — the same value the CLI
    [--query] flag parses and the [Serve.Proto] wire protocol carries.
    Build one with the {!Query} combinators. *)

val query_all : query
(** {!Query.empty}, kept for callers of the pre-[Query] API. *)

val query : t -> query -> Correlator.entry list
(** Matching entries, in canonical order.  The candidates come from the
    narrowest index the query names: a trie lookup for a prefix clause
    ({!Query.wants_covered} uses {!Prefix_trie.covered}), else the
    shorter of the origin and visibility-floor lists, else every entry.
    {!Query.matches} then filters every candidate, so the answer is
    always [List.filter (Query.matches q) (entries t)].  Open episodes
    extend to the end of time for the range test. *)

val count_matching : t -> query -> int
(** [List.length (query t q)] without building the list of matches;
    O(1) for {!Query.empty}. *)

val parse_query : string -> (query, string) result
(** Thin wrapper over {!Query.parse}, kept for callers of the
    pre-[Query] stringly API. *)

(** {2 Persistence} *)

val encode : t -> bytes
val decode : bytes -> t
(** @raise Corrupt on bad magic, version mismatch, truncation, trailing
    octets or invalid field values. *)

val write_file : string -> t -> unit
val read_file : string -> t

(** {2 Report} *)

val render : t -> string
(** Deterministic text listing: roster, entry count, and one line per
    entry with visibility [k/N]. *)
