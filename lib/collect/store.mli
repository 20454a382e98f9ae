(** Persistent, queryable store of correlated MOAS episodes.

    The store keeps {!Correlator.entry} records sorted by prefix, so
    prefix queries (exact or covered/more-specific, the sub-prefix hijack
    shape of paper §4.3) are two bisections rather than scans, and keeps
    the vantage roster so visibility renders as [k/N].

    {b Encode once.}  A store is an immutable value with no incremental
    insert, so everything is computed once, when it is built
    ({!of_entries}, which {!of_correlation} goes through, or {!decode}):
    - the entries in canonical order, so {!entries} costs nothing;
    - the entry section: a name table (the roster and every other name
      an entry carries, ascending) and each entry's
      {!Correlator.write_entry} octets under it, one after another in
      one [bytes], with an offset per entry.  These are exactly the
      octets the [MOASSTOR] file holds, so {!encode} is a header and one
      blit, and a served reply copies the octets of its matches
      ({!section});
    - the indexes, as entry positions in canonical order: the distinct
      prefixes beside the first position of each one's run (a prefix
      and its more-specifics are one run of positions), the positions
      by origin AS, and, for each visibility floor [k], the positions
      seen by at least [k] vantages.
    No index can go stale.

    On disk it is one {!Net.Codec.Frame} (magic ["MOASSTOR"], version 2,
    checksummed) holding the roster and the entry section.  The decoder
    rejects a bad magic, another version, a checksum or length mismatch,
    truncation, trailing octets and any field the compact layout does
    not allow with {!Corrupt}. *)

type t
(** An immutable episode store. *)

exception Corrupt of string
(** Raised by {!decode} on malformed input. *)

val empty : vantages:string list -> t
(** An empty store over a vantage roster (names are sorted and deduped). *)

val of_entries : vantages:string list -> Correlator.entry list -> t
(** The store of these entries, in O(n log n): the entries are sorted
    once and grouped by prefix, their octets written, then the indexes
    built.  Entries already in canonical order with no repeated key, as
    a correlation gives them, are not sorted again.  Entries with the
    same key (prefix, start time, sequence) collapse to the last one
    given.
    @raise Invalid_argument when an entry cannot be encoded: a negative
    integer field, or a vantage name of 65,536 octets or more
    ({!Net.Codec.put_string}). *)

val of_correlation : Correlator.t -> t
(** Index every entry of a correlation result ({!of_entries}). *)

val vantages : t -> string list
val count : t -> int

val entries : t -> Correlator.entry list
(** All entries in canonical order: (network, length) order, then
    (start time, sequence) within a prefix.  O(1): the list is built
    with the store. *)

(** {2 Queries} *)

type query = Query.t
(** The unified typed query ({!Collect.Query}) — the same value the CLI
    [--query] flag parses and the [Serve.Proto] wire protocol carries.
    Build one with the {!Query} combinators. *)

val query : t -> query -> Correlator.entry list
(** Matching entries, in canonical order.  The candidates come from the
    narrowest index the query names: the run of positions of a prefix
    clause (with its more-specifics for {!Query.wants_covered}), else the
    shorter of the origin and visibility-floor lists, else every entry.
    A query that is nothing but the origin or floor clause that picked
    the list is answered by the list itself; otherwise {!Query.matches}
    filters every candidate.  Either way the answer is
    [List.filter (Query.matches q) (entries t)].  Open episodes extend
    to the end of time for the range test. *)

(** {2 Serving the octets of a query} *)

val section : t -> query -> int * (bytes -> int -> unit)
(** [section t q] is the size of, and a writer for, the octets
    {!Correlator.write_entries} writes for [query t q]: [write dst off]
    puts them at [off].  When the matches together name every name of
    the store's table, they are the table's octets, the count and one
    blit of cached octets per run of consecutive positions; otherwise
    the matches are written afresh.
    @raise Invalid_argument when [dst] is too short. *)

val count_matching : t -> query -> int
(** [List.length (query t q)] without building the list of matches;
    O(1) for a query that is nothing but an origin or a visibility
    floor, or {!Query.empty}. *)

(** {2 Persistence} *)

val encode : t -> bytes
(** The frame around the roster, the table's octets, the count and one
    blit of the cached entry octets. *)

val decode : bytes -> t
(** Reads the entries once, copies the entry section out of [data] and
    records each entry's offset on the way: later changes to [data] do
    not reach the store.  A file whose entries are out of canonical
    order or repeat a key, or whose name table is not the roster and
    the names the entries carry, ascending, goes through {!of_entries}
    instead: the store holds the octets {!of_entries} would write, and
    no input file can make decoding quadratic.
    @raise Corrupt on any frame or field error ({!Net.Codec.Frame.open_},
    {!Correlator.read_entry}). *)

val write_file : string -> t -> unit
val read_file : string -> t

(** {2 Report} *)

val render : t -> string
(** Deterministic text listing: roster, entry count, and one line per
    entry with visibility [k/N]. *)
