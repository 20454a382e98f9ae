(** Head-to-head evaluation of the community-dynamics detector against the
    paper's MOAS-list check and the deployment-cost baselines, over the
    collector-mesh scenario arms.

    Each run rebuilds a {!Collect.Scenario} workload on a network whose
    every AS follows the {!Bgp.Community_policy} usage model, installs at
    each unscrubbed feed AS a {!Moas.Community_watch}-backed detector, a
    detect-only MOAS-list detector and an evidence recorder, and scores
    five detectors per prefix (attacked / multihomed / quiet) against the
    arm's ground truth:

    - ["community"] — the {!Moas.Detector.Community} backend: alarms on
      community dynamics at any monitor;
    - ["moas-list"] — the paper's check on {e explicit} evidence: flags
      when observed lists disagree or an observed origin falls outside
      the advertised list.  No list seen, no verdict — which is exactly
      how scrubbing blinds it (Section 4.3);
    - ["moas-alarm"] — the footnote-3 detector (implicit singleton lists
      for unlisted routes): maximal recall, but false-alarms on the
      unlisted legitimate multihoming of the fault-churn arm;
    - ["irr"] — a stale route registry missing the second home's record:
      the staleness failure mode of whois-grade databases;
    - ["s-bgp"] — address attestations carrying exactly the truth: the
      deployment-expensive upper bound, immune to scrubbing.

    Deterministic from the seed at any job count: per-run streams are
    pre-split by run index and results merge in run order. *)

type scores = {
  sc_arm : Collect.Scenario.arm option;  (** [None] aggregates every arm *)
  sc_detector : string;
  sc_confusion : Mutil.Stats.confusion;
}

type result = {
  r_runs : int;
  r_smoke : bool;
  r_seed : int64;
  r_scores : scores list;
      (** per (arm, detector) then overall, in {!Collect.Scenario.all_arms}
          × detector order (community, moas-list, moas-alarm,
          irr, s-bgp) *)
  r_reasons : (Moas.Community_watch.reason * int) list;
      (** community anomalies per rule, summed over runs and monitors *)
  r_class_tally : (Bgp.Community_policy.usage_class * int) list;
      (** AS count per usage class, summed over runs *)
  r_events : int;  (** watch observations processed, the throughput base *)
  r_scrubbed_values : int;  (** community values dropped by scrubbers *)
}

val default_seed : int64
(** Seed used when none is given. *)

val evaluate :
  ?metrics:Obs.Registry.t ->
  ?seed:int64 ->
  ?smoke:bool ->
  ?jobs:int ->
  unit ->
  result
(** Run the grid — every arm × topology (smoke: the 25-AS topology with 2
    replicates; full: all three with 3) — and score.  [metrics] receives
    the merged per-run registries (detector counters, scrub counters,
    [community_events_total], [community_alarms_total{reason}]). *)

val scrubbing_gap_holds : result -> bool
(** The Section 4.3 demonstration, checked: the MOAS-list check has full
    recall on the baseline arm, zero recall on the scrubbed arm, and the
    community backend keeps full recall under scrubbing. *)

val report :
  ?metrics:Obs.Registry.t ->
  ?seed:int64 ->
  ?smoke:bool ->
  ?jobs:int ->
  unit ->
  string
(** {!render} of {!evaluate}. *)
