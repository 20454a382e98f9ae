(** Cross-vantage MOAS-episode correlation.

    The paper's Section 4 argument is that a bogus origin cannot suppress
    the correct announcement on every propagation path, so a conflict is
    always visible {e somewhere}.  The correlator quantifies "somewhere":
    for every episode of the mesh's merged view it computes which vantages
    saw a conflict on the same prefix over an overlapping interval, the
    resulting visibility [k] of [N], and the earliest/latest per-vantage
    detection times.  [k = N] is full visibility; [k < N] is the simulated
    analogue of paths being blocked (link failures, policy, partitions);
    [k = 0] marks conflicts only the cross-vantage union reveals — each
    vantage alone saw a single origin, and only correlating feeds exposes
    the clash. *)

open Net

type entry = {
  x_prefix : Prefix.t;
  x_seq : int;  (** recurrence index in the merged view *)
  x_started : int;
  x_ended : int option;  (** [None] while still open *)
  x_days : int;
  x_max_origins : int;
  x_origins : Asn.Set.t;
  x_clean : bool;  (** false = the MOAS-list check flagged it *)
  x_seen_by : string list;  (** vantages with an overlapping conflict, sorted *)
  x_first_detect : int option;  (** earliest per-vantage episode start *)
  x_last_detect : int option;  (** latest per-vantage episode start *)
}

type t = {
  c_vantages : string list;  (** all vantage names, sorted *)
  c_entries : entry list;  (** merged episodes, sorted (prefix, start, seq) *)
}

val visibility : entry -> int
(** [k]: how many vantages saw the conflict. *)

val correlate :
  vantages:(string * Stream.Monitor.snapshot) list ->
  merged:Stream.Monitor.snapshot ->
  t
(** Correlate per-vantage snapshots against the merged view.  A vantage
    "saw" a merged episode when one of its own episodes on the same prefix
    overlaps the merged episode's [start, end] interval.  Each vantage's
    episodes are indexed by prefix once, so a merged episode reads only
    its own prefix's views. *)

val of_result : Mesh.result -> t
(** {!correlate} over a mesh run. *)

(** {2 The compact entry layout}

    The representation of entries inside both the [MOASSTOR] store
    format and the [MOASSERV] wire protocol: a name table, then entries
    that name their vantages by index into it ({!Net.Codec} varints and
    discipline).  Each entry value has exactly one encoding. *)

val name_table : string list -> string array
(** The distinct names, ascending: the table {!write_entry} indexes. *)

val name_index : string array -> string -> int
(** The position of a name in an ascending table, by bisection.
    @raise Invalid_argument when the table does not hold it. *)

val write_names : Buffer.t -> string array -> unit
(** A u32 count, then each name ({!Net.Codec.put_string}). *)

val read_names : Net.Codec.cursor -> string array

val write_entry : string array -> Buffer.t -> entry -> unit
(** Append one entry, its vantages as indices into the table, which must
    ascend ({!name_table}).
    @raise Invalid_argument on a negative integer field or a vantage
    that is not in the table. *)

type decoder
(** One decode of a run of entries from a cursor: the cursor, the name
    table and a bounded cache of vantage lists. *)

val decoder : entries:int -> string array -> Net.Codec.cursor -> decoder
(** A decoder of about [entries] entries against a name table, reading
    at the cursor. *)

val read_entry : decoder -> entry
(** Decode the entry at the cursor, one {!Net.Codec} reader per field.
    Malformed input raises through the cursor's failure exception:
    truncation, an overlong or oversized varint, unknown or inconsistent
    flags, origins not strictly ascending, a name index outside the
    table, a last detection written out although it equals the first,
    or a prefix with host bits.  A vantage name is the table's own
    string; a list of up to six names of a table of at most 128 is the
    one the decoder handed out before for the same indices; equal first
    and last detections are one option value. *)

val write_entries : Buffer.t -> entry list -> unit
(** The table of the entries' names ({!name_table}), a u32 count and
    the entries. *)

val read_entries : Net.Codec.cursor -> entry list
(** What {!write_entries} writes. *)

val render_entry : vantage_count:int -> entry -> string
(** One deterministic text line for an entry (no trailing newline), with
    visibility rendered as [k/N] against [vantage_count]. *)

val render : t -> string
(** Deterministic text report: the per-episode table (with visibility
    [k/N] and detection spread) and the visibility/validation summary. *)
