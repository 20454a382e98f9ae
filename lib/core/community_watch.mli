(** Community-dynamics hijack detection (the CommunityWatch idea): flag a
    prefix whose BGP community telemetry changes in ways benign routing
    does not produce, {e without} relying on the MOAS list.  This is the
    counterpart to the paper's Section 4.3 weakness — a transit AS that
    scrubs the community attribute erases the MOAS list, but the tags the
    surviving ASes keep applying (and the sudden bareness itself) still
    move, so dynamics-based rules keep working where the list check goes
    blind.

    The watch keeps per-prefix state — every community value, tagger AS
    and origin seen, plus each origin's own stamp — and judges
    observations against four rules after a configurable warmup:

    - {e tagger-churn}: a never-seen origin arrives carrying values or
      tagger ASes new to the prefix, or arrives conspicuously bare while
      the prefix has an established community profile;
    - {e origin-retag}: a known origin's self-applied stamp flips to a
      different nonempty set (a missing stamp is {e not} a flip —
      scrubbers legitimately erase it);
    - {e scrub-event}: a prefix that always carried communities suddenly
      arrives bare from a known origin;
    - {e path-inconsistency}: a community claims an AS that is neither on
      the AS path, the origin, nor the observer.

    New values from known origins are absorbed silently: routine
    rerouting and fault churn constantly retag routes through new ingress
    points, and alarming on that would drown the signal.  MOAS-list
    member values and the RFC 1997 reserved range are ignored entirely —
    the former is the other detector's evidence, the latter carries
    routing directives, not telemetry.

    Each rule fires at most once per (prefix, origin); observations made
    before [warmup_until] only build state.  All state is deterministic
    in the observation sequence, so parallel sweeps replaying identical
    streams report identically. *)

open Net

type reason = Tagger_churn | Origin_retag | Scrub_event | Path_inconsistency

val reason_to_string : reason -> string
(** ["tagger-churn"], ["origin-retag"], ["scrub-event"],
    ["path-inconsistency"]. *)

val all_reasons : reason list
(** The four rules, in declaration order. *)

type anomaly = {
  a_prefix : Prefix.t;
  a_time : float;
  a_reason : reason;
  a_origin : Asn.t;  (** the origin of the route that tripped the rule *)
  a_taggers_before : Asn.Set.t;  (** tagger set established for the prefix *)
  a_taggers_now : Asn.Set.t;  (** tagger set including the new evidence *)
  a_origins : Asn.Set.t;  (** every origin observed, current one included *)
}

type t
(** Watch state for one observation point. *)

val create :
  ?warmup_until:float -> ?metrics:Obs.Registry.t -> self:Asn.t -> unit -> t
(** A watch observing at AS [self].  Observations before [warmup_until]
    (default 0: no warmup) build the baseline silently.  [metrics]
    (default noop) receives counters labelled [("as", self)]:
    [community_events_total] per observation and
    [community_alarms_total] with an extra [reason] label per anomaly. *)

val observe_route :
  t ->
  now:float ->
  prefix:Prefix.t ->
  origin:Asn.t ->
  ?path:Asn.Set.t ->
  Bgp.Community.Set.t ->
  anomaly list
(** Feed one observed route's community set; returns the anomalies this
    observation newly triggered (deduplication already applied).  [path]
    is the set of on-path ASes; omitting it skips the path-inconsistency
    rule (archive replays without full paths). *)

val observe :
  t -> now:float -> prefix:Prefix.t -> Bgp.Route.t list -> anomaly list
(** {!observe_route} over a candidate set, the {!Detector} hook: origin
    and path are taken from each route.  Locally-originated candidates
    are skipped — only routes learned from the network are telemetry. *)

val anomaly_count : t -> int
(** Number of anomalies raised. *)

val event_count : t -> int
(** Number of observations processed (the throughput denominator —
    available even when metrics are the noop registry). *)

val reason_counts : t -> (reason * int) list
(** Per-rule anomaly counts, in {!all_reasons} order. *)
