(** Deterministic text reports over the monitor: the episode report of a
    {!Monitor.snapshot}, and the paper's Section 3 measurement (Figures 4
    and 5 and its statistics) over a stream of observed days.

    Everything here is computed from the monitor's canonical state alone —
    no wall-clock readings, no job counts — so the rendered bytes are
    identical at any [--jobs] setting and across checkpoint/restore
    boundaries.  That identity is asserted by the test suite and CI. *)

type episode_view = {
  v_prefix : Net.Prefix.t;
  v_seq : int;
  v_started : int;
  v_ended : int option;  (** [None] while still open *)
  v_days : int;
  v_max_origins : int;
  v_origins : Net.Asn.Set.t;
  v_clean : bool;
}

val episodes : Monitor.snapshot -> episode_view list
(** Closed and still-open episodes in one list, sorted by
    (prefix, start time, recurrence index). *)

val flagged_open : Monitor.snapshot -> Monitor.prefix_state list
(** The prefixes whose open episode failed the MOAS-list check at a
    settle point: the conflicts the paper's off-line monitor reports. *)

val paper_buckets : int list -> (string * int) list
(** How many of the day counts fall in each Figure 5 duration bucket
    (1, 2, 3-7, 8-30, 31-90, 91-365, >365 days), in that order.  The
    report buckets episodes, an episode not yet credited a day counting
    as one; Figure 5 buckets cases. *)

val render : ?top_windows:int -> Monitor.snapshot -> string
(** The monitor report: stream totals, open/closed episode counts,
    MOAS-list validation verdicts, recurrence, duration histograms, and
    the busiest alert windows ([top_windows], default 5). *)

(** {2 Section 3: MOAS cases over daily table dumps}

    The analysis behind the paper's Figures 4 and 5.  A prefix is "in
    MOAS" on an observed day when more than one origin AS announces it at
    the day's end.  Following the paper, a case is one prefix, and its
    duration is the {e total number of observed days} it spent in MOAS,
    whether or not the days were continuous or involved the same origins:
    the sum of the day counts of the prefix's monitor episodes. *)

type case = {
  c_prefix : Net.Prefix.t;
  c_days : int;  (** the paper's duration, at least 1 *)
  c_max_origins : int;  (** largest origin set of any of its episodes *)
  c_origins : Net.Asn.Set.t;  (** every origin any of its episodes involved *)
}

type section3 = {
  daily_counts : (Mutil.Day.t * int) list;
      (** Figure 4's series: open episodes at the end of each observed day *)
  cases : case list;  (** one per prefix ever in MOAS, sorted by prefix *)
}

val cases : Monitor.snapshot -> case list
(** The snapshot's episodes summed per prefix; prefixes whose episodes
    never spanned a day's end are not cases. *)

val section3 : Source.t -> section3
(** Drain a source through one {!Monitor}: each batch that carries a day
    ends with {!Monitor.mark_day}, any other with {!Monitor.settle}.
    The archive's days come from {!Source.of_archive}. *)

val cases_on : section3 -> Mutil.Day.t -> int
(** The count on a day (0 when unobserved). *)

val one_day_cases_attributed_to : section3 -> Net.Asn.t -> int
(** One-day cases that ever involved the AS: the paper's "82.7% of
    short-lived cases were the 1998-04-07 fault". *)

val origin_multiplicity : section3 -> (int * float) list
(** (largest origin-set size, fraction of cases), sorted by size. *)

val median_daily_in_year : section3 -> int -> float
(** Median daily count over the observed days of a calendar year (paper:
    683 for 1998, 1294 for 2001). *)

val figure4_text : section3 -> string
(** Figure 4 as an ASCII plot with the peak and the two fault days. *)

val figure5_text : section3 -> string
(** Figure 5: cases per duration bucket, the buckets of {!paper_buckets}. *)

val summary_table : section3 -> string
(** Paper-vs-measured table of every Section 3 statistic. *)
