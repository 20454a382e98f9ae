(** Process-wide metrics registry: named counters, gauges and fixed-bucket
    histograms, each optionally qualified by labels such as
    [("as", "7")].  The registry is the measurement substrate behind the
    CLI's [--metrics] dumps and perfbench's simulation counters.

    Instrumentation is zero-cost when disabled: {!noop} is a registry on
    which every instrument is inert (registration returns a no-op handle
    and updating it is a single branch), so the default code paths pay
    nothing and simulations stay deterministic — no metrics state feeds
    back into behaviour either way.

    Export order is deterministic: samples are sorted by metric name and
    then by labels, never by registration or update order. *)

type t
(** A registry: either live (collecting) or the inert {!noop}. *)

type labels = (string * string) list
(** Label key/value pairs qualifying an instrument, e.g. [("as", "7")].
    Order is irrelevant: labels are normalised by sorting on the key. *)

val create : unit -> t
(** A fresh live registry. *)

val noop : t
(** The disabled registry: instruments obtained from it discard every
    update and it exports no samples. *)

val is_noop : t -> bool
(** Whether the registry is the inert one — lets hot paths skip even the
    computation of a value to record. *)

module Counter : sig
  type t
  (** A monotonically increasing integer. *)

  val incr : t -> unit
  (** Add one. *)

  val add : t -> int -> unit
  (** Add [n]. @raise Invalid_argument on a negative increment. *)

  val value : t -> int
  (** Current count (0 on a no-op handle). *)
end

module Gauge : sig
  type t
  (** A float that can move both ways (queue depth, RIB size, seconds). *)

  val set : t -> float -> unit
  (** Overwrite the value. *)

  val add : t -> float -> unit
  (** Accumulate into the value (used for wall-time totals). *)

  val observe_max : t -> float -> unit
  (** Keep the maximum of the current value and the observation — a
      high-water mark. *)

  val value : t -> float
  (** Current value (0 on a no-op handle). *)
end

module Histogram : sig
  type t
  (** A fixed-bucket histogram of float observations. *)

  val observe : t -> float -> unit
  (** Record one observation into its bucket. *)

  val count : t -> int
  (** Number of observations. *)

  val sum : t -> float
  (** Sum of all observations. *)

  val buckets : t -> (float * int) list
  (** Per-bucket counts as [(upper_bound, count)] pairs, ending with the
      [(infinity, n)] overflow bucket.  Counts are per bucket, not
      cumulative. *)
end

val counter : t -> ?labels:labels -> string -> Counter.t
(** The counter registered under the name and labels, created on first
    use.  The same (name, labels) pair always yields the same instrument.
    @raise Invalid_argument if the name is already registered as a
    different instrument kind. *)

val gauge : t -> ?labels:labels -> string -> Gauge.t
(** Like {!counter} for a gauge. *)

val histogram : t -> ?labels:labels -> ?buckets:float list -> string -> Histogram.t
(** Like {!counter} for a histogram.  [buckets] are the upper bounds of
    the buckets, in strictly increasing order (an [infinity] overflow
    bucket is always appended); the default spans 100 µs to 10 s in
    decades, suitable for wall-clock durations in seconds.
    @raise Invalid_argument on an unsorted bucket list. *)

(** {2 Reading and exporting} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

and histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;  (** per-bucket [(upper_bound, count)] *)
}

type sample = { name : string; labels : labels; value : value }

val samples : t -> sample list
(** Every registered instrument's current value, sorted by name then
    labels.  Empty on {!noop}. *)

val counter_value : t -> ?labels:labels -> string -> int
(** Convenience: the current value of a counter, 0 when absent. *)

val sum_counters : t -> string -> int
(** Sum of a counter over all label sets — e.g. total
    ["bgp_updates_sent"] across every per-AS series. *)

val to_csv : t -> string list * string list list
(** [(header, rows)] for {!Mutil.Csv}: one row per sample, histograms
    flattened to count/sum. *)

val to_json_lines : ?extra:labels -> t -> string
(** One JSON object per line per sample:
    [{"metric":NAME,"type":KIND,"labels":{...},...}].  [extra] labels are
    merged into every line (used to stamp the workload a registry
    measured). *)

val clear : t -> unit
(** Drop every registered instrument (a no-op on {!noop}). *)

val merge : into:t -> t -> unit
(** Accumulate every instrument of the second registry into [into],
    creating missing instruments on the way: counters and gauges add
    their values, histograms add bucket counts, totals and sums.  Built
    for combining the per-task registries of a parallel sweep after the
    barrier; instruments are visited in (name, labels) order, so the
    result is deterministic regardless of insertion order.  A no-op when
    either side is {!noop}.
    @raise Invalid_argument if an instrument name collides across kinds
    or a histogram exists in both with different bucket bounds. *)
