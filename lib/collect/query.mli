(** The unified typed episode query — the {e single} query representation
    consumed by {!Store.query}, the CLI [--query] flag and the
    [Serve.Proto] wire protocol.

    A query is a conjunction of optional clauses over
    {!Correlator.entry} records.  It is built with the combinator
    pipeline

    {[ Query.(empty |> prefix p |> covered |> min_visibility 2) ]}

    printed with {!to_string}, parsed back with {!parse} (the same
    comma-separated [key=value] syntax the CLI has always used), and
    carried on the wire with {!write}/{!read} — one builder, one parser,
    one printer, one binary codec.  The type is abstract: the old
    record-literal construction sites are gone, so every producer goes
    through the same validated surface. *)

open Net

type t
(** A query.  {!empty} matches every entry; each combinator tightens it. *)

exception Corrupt of string
(** Raised by {!decode} on malformed binary input. *)

val empty : t
(** The match-everything query. *)

(** {2 Builder} *)

val prefix : Prefix.t -> t -> t
(** Restrict to entries on this prefix (exact, unless {!covered}). *)

val covered : t -> t
(** Make the {!prefix} restriction include more-specifics — the
    sub-prefix hijack shape of paper §4.3.  Without a prefix clause it
    is recorded but vacuous. *)

val origin : Asn.t -> t -> t
(** Entries whose origin set contains this AS. *)

val since : int -> t -> t
(** Episode interval must end at or after this time (open episodes
    extend to the end of time).  @raise Invalid_argument on a negative
    time. *)

val until : int -> t -> t
(** Episode must start at or before this time.
    @raise Invalid_argument on a negative time. *)

val min_visibility : int -> t -> t
(** At least [k] vantages saw the episode.
    @raise Invalid_argument on a negative floor or one above 4294967295
    (the wire form stores it as a u32). *)

val bucket : Stream.Monitor.bucket -> t -> t
(** Restrict to episodes whose observed day count falls in the given
    Section 3 duration bucket, per {!Stream.Monitor.bucket_of_days} on
    the default config (short <= 1 observed day < medium <= 60 < long) —
    the same boundaries the stream report prints. *)

(** {2 Accessors} *)

val target : t -> Prefix.t option
val wants_covered : t -> bool
val origin_filter : t -> Asn.t option
val since_bound : t -> int option
val until_bound : t -> int option
val visibility_floor : t -> int option

val equal : t -> t -> bool

val matches : t -> Correlator.entry -> bool
(** Whether an entry satisfies every clause (including the prefix
    clause, tested with {!Net.Prefix.subsumes} when {!covered}). *)

(** {2 One parser, one printer} *)

val parse : string -> (t, string) result
(** Parse a comma-separated [key=value] list: [prefix=198.51.100.0/24],
    [covered=true], [origin=65001], [since=0], [until=90000],
    [min_visibility=2], [bucket=short|medium|long].  An empty string is
    {!empty}.  Times and the visibility floor must be non-negative. *)

val to_string : t -> string
(** Canonical rendering in the {!parse} syntax (clauses in fixed key
    order; [""] for {!empty}).  [parse (to_string q)] = [Ok q]. *)

(** {2 One binary codec} *)

val write : Buffer.t -> t -> unit
(** Append the query in the shared {!Net.Codec} layout (no framing —
    the container supplies magic/version/length). *)

val read : Net.Codec.cursor -> t
(** Decode one query; malformed input raises through the cursor. *)

val encode : t -> bytes
(** Standalone frame: just the {!write} payload. *)

val decode : bytes -> t
(** @raise Corrupt on truncation, bad tags or trailing octets. *)
