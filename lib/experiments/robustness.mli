(** Detection robustness under injected faults (the {!Faults} layer).

    The paper's core robustness argument (Section 4.1) is that an attacker
    evades MOAS-list detection only by blocking {e every} propagation path
    of the correct announcement.  The failure-free experiments never test
    that boundary; this module does, three ways:

    - {!partition_study} cuts the legitimate origin's peerings one by one
      between the valid announcement and the attack.  Detection must stay
      at 100% while any path survives and fall to 0 exactly when the
      origin is partitioned (no capable AS can then hold both routes).
    - a churn study runs Poisson-like link churn across the whole mesh
      during the attack, with an attack-free control arm driven by the
      identical fault trajectory: alarms in the control arm are false
      alarms attributable to churn alone.
    - a loss study subjects every link to probabilistic message loss
      (the simulator models the channel without TCP retransmission).

    Everything is deterministic from the seed: the same study called twice
    yields identical points, alarm counts and convergence times. *)

type partition_point = {
  links_cut : int;  (** origin peerings severed (clamped to the degree) *)
  runs : int;
  partitioned_runs : int;  (** runs whose origin lost its last path *)
  detected_reachable : int;  (** detecting runs among the non-partitioned *)
  detected_partitioned : int;  (** detecting runs among the partitioned *)
  mean_adopting : float;  (** mean fraction adopting the bogus route *)
}

val partition_study :
  ?seed:int64 ->
  ?runs:int ->
  ?jobs:int ->
  topology:Topology.Paper_topologies.t ->
  unit ->
  partition_point list
(** One point per number of severed origin links, 0 up to the largest
    origin degree drawn (default 10 runs; full deployment, 1 origin, 1
    attacker).  The links are cut after the first convergence and the
    attack lands only once the withdrawal's path exploration has fully
    died out, so each point measures the steady-state boundary rather
    than a race between the bogus announcement and the teardown. *)

val every_path_blocking_holds : partition_point list -> bool
(** The paper's claim, checked: every non-partitioned run detected and no
    partitioned run did. *)

val report : ?seed:int64 -> ?smoke:bool -> ?jobs:int -> unit -> string
(** All three studies rendered for the paper topologies ([smoke] restricts
    to the 25-AS topology with fewer runs and sweep points — the CI
    determinism job runs it twice and diffs the output).  The per-run
    simulations execute on an {!Exec.Pool}; the report is byte-identical
    at any [jobs] count. *)
