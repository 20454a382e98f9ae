(** Persistent, queryable store of correlated MOAS episodes.

    The store indexes {!Correlator.entry} records in a {!Net.Prefix_trie},
    so prefix queries (exact or covered/more-specific, the sub-prefix
    hijack shape of paper §4.3) are trie walks rather than scans, and
    keeps the vantage roster so visibility renders as [k/N].

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

val add : Correlator.entry -> t -> t
(** Index one correlated episode.  An entry equal to one already stored
    (same prefix, sequence and start) replaces it. *)

val of_entries : vantages:string list -> Correlator.entry list -> t
(** The store a sequence of {!add}s over [empty ~vantages] would build,
    in O(n log n): the entries are sorted once and grouped by prefix.
    {!decode} builds through it, so no input file can make decoding
    quadratic. *)

val of_correlation : Correlator.t -> t
(** Index every entry of a correlation result ({!of_entries}). *)

val vantages : t -> string list
val count : t -> int

val entries : t -> Correlator.entry list
(** All entries in canonical order: trie (network, length) order, then
    (start time, sequence) within a prefix. *)

(** {2 Queries} *)

type query = Query.t
(** The unified typed query ({!Collect.Query}) — the same value the CLI
    [--query] flag parses and the [Serve.Proto] wire protocol carries.
    Build one with the {!Query} combinators. *)

val query_all : query
(** {!Query.empty}, kept for callers of the pre-[Query] API. *)

val query : t -> query -> Correlator.entry list
(** Matching entries, in canonical order.  The prefix clause is a trie
    lookup ({!Query.wants_covered} uses {!Prefix_trie.covered}); the
    other clauses filter via {!Query.matches}.  Open episodes extend to
    the end of time for the range test. *)

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
