(** Synthetic Oregon RouteViews archive (DESIGN.md substitution 2).

    The paper's Section 3 measures MOAS cases over daily routing-table
    dumps from 1997-11-08 to 2001-07-18.  This module generates a stream
    of daily dumps with the documented phenomenology, calibrated to the
    paper's aggregates:

    - a growing population of long-lived multi-homing/ASE MOAS prefixes
      (daily median 683 in 1998 rising to 1294 in 2001);
    - short- and medium-lived operational churn;
    - the 1998-04-07 AS8584 fault (1,135 one-day cases — 82.7% of all
      one-day cases) and the 2001-04-06 AS15412/AS3561 fault;
    - roughly 70 days of missed collection, leaving the paper's 1279
      observed days.

    The generator is delta-native, like the update streams real archives
    publish: {!delta_seq} yields per observed day only the prefixes whose
    origin set changed, streamed day by day, so nothing holds the full
    archive in memory.  A day's table dump is the deltas so far folded
    into one table. *)

open Net

type params = {
  seed : int64;
  universe_size : int;  (** prefixes in the table; some never become MOAS *)
  initial_long_lived : int;  (** standing MOAS prefixes on day one *)
  final_long_lived : int;  (** standing MOAS prefixes on the last day *)
  one_day_churn : int;  (** spontaneous single-day conflicts (non-event) *)
  medium_churn : int;  (** conflicts lasting a few days to two months *)
  medium_max_duration : int;  (** upper bound for medium episodes, days *)
  missing_day_count : int;  (** collector outage days *)
  event_1998_size : int;  (** prefixes hit by the 1998-04-07 AS8584 fault *)
  event_2001_size : int;  (** prefixes hit by the 2001-04-06 AS15412 fault *)
}

val default_params : params
(** Calibrated to the paper's reported aggregates (see module doc). *)

val smoke_params : params
(** A 1/10-size archive with the same phenomenology (both fault events,
    114 and 97 prefixes), for the CLI's [--smoke] runs and the tests. *)

val observed_days : params -> bool array
(** Index [d] (offset from {!Mutil.Day.measurement_start}) tells whether
    the collector produced a dump that day. *)

type change = {
  row : int;  (** the prefix's row in the table, [0 <= row < universe_size] *)
  prefix : Prefix.t;
  before : Asn.Set.t;  (** origin set last published; empty before day one *)
  after : Asn.Set.t;  (** origin set on this day, never equal to [before] *)
}

type day_delta = {
  delta_day : Mutil.Day.t;
  changes : change list;  (** in row order *)
}

val delta_seq : params -> day_delta Seq.t
(** The observed days in chronological order, each with the prefixes
    whose origin set differs from the previous observed day.  The first
    observed day lists every prefix.  A prefix whose episode opens and
    closes inside a run of missing days does not appear.  The sequence is
    {e single-pass}: forcings share one mutable origin sweep, so consume
    it front to back exactly once (re-call [delta_seq] for another
    pass). *)

val fault_as_1998 : Asn.t
(** AS 8584, the origin of the 1998-04-07 fault. *)

val fault_as_2001 : Asn.t
(** AS 15412, the origin of the 2001-04-06 fault. *)

val event_1998 : Mutil.Day.t
(** 1998-04-07. *)

val event_2001 : Mutil.Day.t
(** 2001-04-06. *)
