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

val write_entry : Buffer.t -> entry -> unit
(** Append one entry in the shared binary layout ({!Net.Codec}
    discipline) — the representation used inside both the [MOASSTOR]
    store format and the [MOASSERV] wire protocol. *)

val entry_size : entry -> int
(** The number of octets {!write_entry} appends for this entry, so an
    encoder can allocate its buffer once at the final size. *)

type decoder
(** The state of one decode: for a long one, two bounded share tables
    ({!Net.Codec.share}), for vantage names and for whole name lists; and
    whether every entry read so far is canonical. *)

val decoder : entries:int -> decoder
(** A fresh decoder for about [entries] entries.  From 64 entries on it
    shares, through tables of 64 slots, so the work per entry stays
    constant whatever the input holds; below that every name list is
    read afresh, which is faster while the entries decoded are few. *)

val read_entry : decoder -> Net.Codec.cursor -> entry
(** Decode one entry; malformed input raises through the cursor's
    failure exception, at the octet and with the message the generic
    {!Net.Codec} readers give.  Equal vantage names and equal name lists
    met in one decode of 64 entries or more are one shared value; a
    single origin is [Asn.Set.singleton]; equal first and last detection
    times are one option value.  The per-entry path allocates no
    closure. *)

val canonical : decoder -> bool
(** Whether {!write_entry} gives back exactly the octets of every entry
    the decoder read: no host bits in a prefix, no i63 field with bit 63
    or 62 set, origins strictly ascending. *)

val read_entries : Net.Codec.cursor -> entry list
(** A u32 count and that many entries ({!Net.Codec.take_list}'s layout
    and checks), read with one fresh {!decoder}. *)

val render_entry : vantage_count:int -> entry -> string
(** One deterministic text line for an entry (no trailing newline), with
    visibility rendered as [k/N] against [vantage_count]. *)

val render : t -> string
(** Deterministic text report: the per-episode table (with visibility
    [k/N] and detection spread) and the visibility/validation summary. *)
