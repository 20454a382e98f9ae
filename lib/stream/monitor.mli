(** One shard of the online MOAS monitor: an incremental state machine
    over a timestamped stream of per-origin BGP announce/withdraw events.

    The monitor maintains, per prefix, the set of origin ASes currently
    announcing it (each with the MOAS list it advertised, when any) and
    tracks MOAS {e conflict episodes}: an episode opens when a prefix's
    origin set grows beyond one AS and closes when it shrinks back to at
    most one.  Episodes carry their start/end times, the number of
    observed days spent in conflict (fed by {!mark_day}), the largest
    origin set seen, every origin ever involved, their per-prefix
    recurrence index, and a validation verdict from the paper's MOAS-list
    consistency check (evaluated at {!settle} points over the settled
    origin state, so mid-batch re-announcement races never raise false
    alarms).  Alerts and episode open/close counts are also aggregated
    into fixed-width time windows.

    A monitor instance is single-threaded; {!Sharded} hash-partitions a
    stream over several instances.  All reportable state can be extracted
    as a canonical, fully sorted {!snapshot} — the unit of shard merging,
    of the byte-identical report contract, and of checkpoint/restore. *)

open Net

(** {2 Events} *)

type action =
  | Announce of { origin : Asn.t; moas_list : Asn.Set.t option }
      (** [origin] now announces the prefix, advertising [moas_list]
          (decoded from the BGP community attribute) when present. *)
  | Withdraw of { origin : Asn.t }
      (** [origin] no longer announces the prefix. *)

type event = { time : int; peer : Asn.t; prefix : Prefix.t; action : action }
(** One stream element.  [time] is in seconds on the feed's clock and
    must be non-decreasing per prefix; [peer] records the contributing
    feed (informational). *)

(** {2 Configuration} *)

type config = {
  window : int;  (** alert-aggregation window width, seconds *)
  short_max_days : int;  (** episodes up to this many days are short *)
  medium_max_days : int;  (** up to this many days, medium; beyond, long *)
  day_seconds : int;  (** seconds per observed day ({!mark_day} cadence) *)
}

val default_config : config
(** One-day windows; short = 1 day, medium = 2..60 days, long beyond —
    the Section 3 buckets of the paper (one-day operational faults,
    multi-day churn, standing multi-homing). *)

(** {2 Duration buckets}

    The paper's Section 3 short/medium/long episode classes, shared by
    the stream report, the [Collect.Query] [bucket=] clause and the
    classifier's bucket feature — one definition, one parser. *)

type bucket = Short | Medium | Long

val bucket_of_days : config -> int -> bucket
(** Classify an episode's observed day count against the config's
    boundaries.  Day counts below 1 are clamped to 1 (an episode observed
    at all was observed for at least a day, as in the paper's duration
    definition). *)

val bucket_to_string : bucket -> string
(** Machine name: ["short"], ["medium"], ["long"] — the [bucket=] query
    syntax. *)

val bucket_of_string : string -> (bucket, string) result
(** Inverse of {!bucket_to_string} (case-insensitive). *)

val bucket_label : bucket -> string
(** Human label for reports: ["short-lived"], ["medium-lived"],
    ["long-lived"]. *)

val compare_bucket : bucket -> bucket -> int
(** Short < Medium < Long. *)

(** {2 Live monitor} *)

type t

val create : ?metrics:Obs.Registry.t -> config -> t
(** A fresh monitor.  [metrics] (default {!Obs.Registry.noop}) receives
    [stream_*] counters as the stream is ingested.
    @raise Invalid_argument on a non-positive window or inverted buckets. *)

val ingest : t -> event -> unit
(** Feed one event.  Episode open/close transitions happen immediately
    and raise [Opened]/[Closed] alerts; MOAS-list validation is deferred
    to the next {!settle}/{!mark_day}. *)

val settle : t -> time:int -> unit
(** Run the MOAS-list consistency check over every prefix touched since
    the last settle point whose conflict is still open and unflagged;
    failures flag the episode and raise one [Flagged] alert (counted in
    [time]'s window, stamped with the stream clock).  Call at batch
    boundaries, once the batch's announcements have all landed. *)

val mark_day : t -> time:int -> unit
(** End an observed collection day at [time]: advance the stream clock
    to [time], {!settle}, then credit one conflicted day to every open
    episode.  The per-episode day counts follow exactly the paper's
    duration definition (total observed days in MOAS): summed per prefix
    they are the Section 3 case durations of {!Report.section3}. *)

val advance_clock : t -> time:int -> unit
(** Move the stream clock (the latest event time seen, which stamps
    [Flagged] alerts) forward to [time]; a no-op when it is already
    there.  {!Sharded} keeps every shard on the global clock with it. *)

(** {2 Episode alerts}

    The monitor reports each episode's lifecycle as it happens: [Opened]
    when {!ingest} opens a conflict, [Flagged] when a {!settle} point's
    MOAS-list check fails (once per episode), [Closed] when {!ingest}
    closes it.  A {e batch} runs from the first {!ingest} or {!settle}
    after a settle point through the next settle point, and
    {!batch_alerts} reads the latest batch's alerts; this is the one
    alert path behind the serving daemon's live subscriptions. *)

type alert_kind = Opened | Flagged | Closed

type alert = {
  al_time : int;
      (** [Opened]: episode start; [Flagged]: the stream clock at the
          settle point; [Closed]: episode end *)
  al_prefix : Prefix.t;
  al_origins : Asn.Set.t;
      (** every origin the episode has involved, as of the read (a
          closed episode's final set) *)
  al_kind : alert_kind;
}

val compare_alert : alert -> alert -> int
(** Canonical order: (time, prefix, kind, origins), kinds ordered
    [Opened < Flagged < Closed]. *)

val batch_alerts : t -> alert list
(** The alerts of the latest batch, in {!compare_alert} order: after a
    settle point, everything that batch raised; mid-batch, what it has
    raised so far.  Reading does not consume them; the next batch
    replaces them, so a monitor holds one batch's alerts whether or not
    anyone reads them.  Alerts are not part of the {!snapshot}: a
    monitor rebuilt by {!restore} starts with none. *)

val open_count : t -> int
(** Episodes currently open (O(1)). *)

val update_count : t -> int
(** Events ingested so far. *)

val day_count : t -> int
(** {!mark_day} calls so far. *)

(** {2 Canonical snapshot} *)

type origin_entry = { origin : Asn.t; adv_list : Asn.Set.t option }

type open_episode = {
  o_seq : int;  (** 1-based recurrence index for the prefix *)
  o_started : int;
  o_days : int;
  o_max_origins : int;
  o_origins_ever : Asn.Set.t;
  o_clean : bool;  (** false once the MOAS-list check has failed *)
}

type episode = {
  e_prefix : Prefix.t;
  e_seq : int;
  e_started : int;
  e_ended : int;
  e_days : int;
  e_max_origins : int;
  e_origins_ever : Asn.Set.t;
  e_clean : bool;
}

type prefix_state = {
  p_prefix : Prefix.t;
  p_origins : origin_entry list;  (** sorted by origin *)
  p_open : open_episode option;
  p_closed_count : int;  (** completed episodes (recurrence) *)
}

type window_counts = {
  w_updates : int;
  w_opened : int;
  w_closed : int;
  w_alerts : int;
}

type counters = {
  c_updates : int;
  c_announces : int;
  c_withdraws : int;
  c_opened : int;
  c_closed : int;
  c_alerts : int;
  c_days : int;
}

val zero_counters : counters

type snapshot = {
  s_config : config;
  s_counters : counters;
  s_last_time : int;
  s_prefixes : prefix_state list;  (** sorted by prefix *)
  s_closed : episode list;  (** sorted by (prefix, started, seq) *)
  s_windows : (int * window_counts) list;  (** sorted by window index *)
}

val empty_snapshot : config -> snapshot

val snapshot : t -> snapshot
(** The monitor's full state in canonical order: independent of hash-table
    iteration order, ingestion interleaving and shard count. *)

val merge_snapshots : snapshot list -> snapshot
(** Combine the snapshots of prefix-disjoint shards: prefix states and
    episodes are concatenated and re-sorted, window counts and counters
    are summed — except [c_days], which every shard counts in full and the
    merge therefore takes as a maximum.  The config is taken from the
    first snapshot.  @raise Invalid_argument on an empty list. *)

val restore : ?metrics:Obs.Registry.t -> snapshot -> t
(** Rebuild a live monitor from a snapshot; the inverse of {!snapshot}.
    Restored totals are re-credited to [metrics] so a restarted monitor's
    counters line up with an uninterrupted run. *)

val origins_validated : Asn.Set.t option Asn.Map.t -> bool
(** The consistency predicate behind {!settle}, exposed for tests: with
    two or more origins, true iff every origin advertises a list, all
    lists agree, and the agreed list covers every current origin. *)
