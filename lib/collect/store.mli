(** Persistent, queryable store of correlated MOAS episodes.

    The store keeps {!Correlator.entry} records sorted by prefix, so
    prefix queries (exact or covered/more-specific, the sub-prefix hijack
    shape of paper §4.3) are two bisections rather than scans, and keeps
    the vantage roster so visibility renders as [k/N].

    {b Encode once.}  A store is an immutable value with no incremental
    insert, so everything is computed once, when it is built
    ({!of_entries}, which {!of_correlation} goes through, or {!decode}):
    - the entries in canonical order, so {!entries} costs nothing;
    - the canonical entry section: each entry's {!Correlator.write_entry}
      octets, one after another in one [bytes], with an offset per entry.
      These are exactly the octets the [MOASSTOR] file holds, so
      {!encode} is a header and one blit, and a served reply copies the
      octets of its matches ({!select}, {!blit_selection});
    - the indexes, as entry positions in canonical order: the distinct
      prefixes beside the first position of each one's run (a prefix
      and its more-specifics are one run of positions), the positions
      by origin AS, and, for each visibility floor [k], the positions
      seen by at least [k] vantages.
    No index can go stale.

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
    {!Query.matches} then filters every candidate, so the answer is
    always [List.filter (Query.matches q) (entries t)].  Open episodes
    extend to the end of time for the range test. *)

(** {2 Serving the octets of a query} *)

type selection
(** The entries [query t q] returns, as positions in the store. *)

val select : t -> query -> selection
(** The matches of a query, found as {!query} finds them, without
    building a list of entries. *)

val selection_count : selection -> int
(** [List.length (query t q)]. *)

val selection_octets : selection -> int
(** The octets {!Correlator.write_entry} writes for the matches, summed. *)

val blit_selection : selection -> bytes -> int -> unit
(** [blit_selection s dst off] copies the matches' octets into [dst] from
    [off], in canonical order: the octets [write_entry] would write for
    [query t q], one blit per run of consecutive positions.
    @raise Invalid_argument when [dst] has fewer than
    [selection_octets s] octets from [off]. *)

val count_matching : t -> query -> int
(** [List.length (query t q)] without building the list of matches;
    O(1) for {!Query.empty}. *)

(** {2 Persistence} *)

val encode : t -> bytes
(** The header and roster, then one blit of the canonical entry
    section. *)

val decode : bytes -> t
(** Reads the entries once with one {!Correlator.decoder}, copies the
    entry section out of [data] and records each entry's offset on the
    way: later changes to [data] do not reach the store.  A file whose
    entries are out of canonical order, repeat a key, or would not
    re-encode to the same octets ({!Correlator.canonical}) goes through
    {!of_entries} instead, so no input file can make decoding quadratic
    and the store always holds canonical octets.
    @raise Corrupt on bad magic, version mismatch, truncation, trailing
    octets or invalid field values, among them an i63 field with bit 62
    set, which reads as a negative integer no entry can hold. *)

val write_file : string -> t -> unit
val read_file : string -> t

(** {2 Report} *)

val render : t -> string
(** Deterministic text listing: roster, entry count, and one line per
    entry with visibility [k/N]. *)
