(** Automatic fault-event detection on the daily MOAS series.

    The paper identifies its measurement spikes by hand ("the few large
    spikes in Figure 4 match to the well known BGP route faults").  This
    module automates that reading: a day is flagged when its count exceeds
    a robust local baseline (median of a trailing window) by a large
    margin, so the slow multi-homing growth never alarms while the
    1998-04-07 and 2001-04-06 events stand out. *)

type spike = {
  day : Mutil.Day.t;
  count : int;  (** the day's MOAS count *)
  baseline : float;  (** trailing-window median it was compared against *)
  magnitude : float;  (** count / max(baseline, 1) *)
}

val detect :
  ?window:int ->
  ?threshold:float ->
  (Mutil.Day.t * int) list ->
  spike list
(** [detect daily] flags days whose count is at least [threshold] (default
    1.6) times the median of the previous [window] (default 30) observed
    days.  Consecutive flagged days belonging to one event are all
    reported; the first [window] days are never flagged (no baseline
    yet). *)

val render : spike list -> string
(** One line per spike. *)
