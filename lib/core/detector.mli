(** The per-router MOAS conflict detector — the paper's core mechanism
    (Section 4.2), packaged as a {!Bgp.Router.validator}.

    On every decision the detector compares the MOAS lists of all candidate
    routes for the prefix (a route without a list counts as carrying the
    implicit list [{origin}], footnote 3).  When the lists disagree it
    raises an {!Alarm.t}; with a verification {!backend} it then discards
    every candidate whose origin is not entitled, which stops the false
    route from being selected or propagated — the behaviour assumed in the
    paper's Experiment 1.  With {!Detect_only} (the default) the detector
    alarms but lets BGP proceed (the off-line monitoring deployment of
    Section 4.2). *)

open Net

type t
(** Detector state for one router. *)

type verify = now:float -> Prefix.t -> Asn.Set.t option
(** A pluggable origin-verification backend: the entitled origin set for
    the prefix, or [None] when no verdict can be obtained (the detector
    then fails open).  {!Origin_verification} and a DNS MOASRR lookup are
    the two backends used in the experiments. *)

type backend =
  | Oracle of Origin_verification.t
      (** consult the origin registry on every conflict *)
  | Custom of verify  (** a caller-supplied backend, e.g. a DNS lookup *)
  | Detect_only  (** alarm but never filter (off-line monitoring) *)
  | Community of Community_watch.t
      (** judge community {e dynamics} instead of MOAS lists: every
          candidate is fed to the watch, each anomaly raises an alarm
          whose conflicting lists are the established-vs-observed tagger
          sets, and routing is never filtered.  This backend keeps
          detecting when transit ASes scrub the community attribute and
          the list check of Section 4.2 goes blind (Section 4.3); pair it
          with [~check_self_consistency:false], as list checks do not
          apply. *)
(** What the detector does after alarming.  One explicit variant instead
    of the former [?oracle]/[?verify] optional-argument pair, whose
    silent precedence rule ([verify] won when both were given) was a
    footgun. *)

val create :
  ?backend:backend ->
  ?on_alarm:(Alarm.t -> unit) ->
  ?check_self_consistency:bool ->
  ?metrics:Obs.Registry.t ->
  self:Asn.t ->
  unit ->
  t
(** A detector for the router of AS [self].  [backend] (default
    {!Detect_only}) is consulted on conflicts.  [on_alarm] is invoked once
    per distinct conflict signature (repeated BGP churn over the same
    conflict does not re-alarm).  [check_self_consistency] (default true)
    also rejects routes whose carried list omits their own origin — a
    local check needing no second opinion.

    [metrics] (default {!Obs.Registry.noop}) receives per-AS counters
    labelled [("as", self)]: [moas_alarms], [moas_verify_calls] and
    [moas_routes_discarded]. *)

val validator : t -> Bgp.Router.validator
(** The validator to install on the router.  Every backend but
    {!Community} also gives verdicts on one moved route: after a clean
    pass over a prefix's candidates (no alarm, no verification: every
    candidate left by the self-consistency and entitlement filters
    agreed) it keeps a moved route that passes the filters and agrees
    with the incumbent, drops one that fails a filter, and keeps a
    withdrawal; anything else asks for a full pass.  The verdicts read
    the per-prefix state of the detector's last pass, so a detector
    serves one router. *)

val alarms : t -> Alarm.t list
(** Alarms raised so far, oldest first. *)

val alarm_count : t -> int
(** Number of alarms raised. *)

val reset : t -> unit
(** Forget alarms and de-duplication state. *)
