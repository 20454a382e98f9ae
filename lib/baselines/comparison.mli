(** Head-to-head comparison of the paper's MOAS-list scheme against the
    related-work defenses it discusses (Section 2 / Section 6):

    - plain BGP (no defense),
    - MOAS lists with full deployment (this paper),
    - S-BGP-style origin/path authentication, with intact and with
      compromised keys,
    - IRR-based customer filtering, with fresh and with stale registries.

    Two attack modes are run: the paper's false-origin announcement, and
    the path-forging impersonation that defeats origin checks.  The paper's
    argument (Section 6) is visible in the numbers: cryptography wins while
    keys are safe but fails closed on a single compromised key, whereas the
    topology-based check degrades gracefully. *)

open Net

type defense =
  | No_defense
  | Moas_full  (** the paper's mechanism, full deployment with MOASRR *)
  | Sbgp of Asn.Set.t  (** origin/path auth; the set holds compromised keys *)
  | Irr of float  (** customer filtering; the float is registry staleness *)

val defense_to_string : defense -> string
(** Report label. *)

type attack_mode =
  | False_origin  (** the paper's Section 5 attack *)
  | Impersonation  (** Section 4.3's manipulated-path attack *)

type result = {
  defense : defense;
  attack : attack_mode;
  mean_adopting : float;  (** over the runs *)
  mean_valid_loss : float;
      (** fraction of non-attacker ASes left with NO route to the victim
          prefix — collateral damage of over-filtering (IRR staleness) *)
  runs : int;
}

val head_to_head :
  ?seed:int64 ->
  ?runs:int ->
  ?n_attackers:int ->
  topology:Topology.Paper_topologies.t ->
  unit ->
  result list
(** Run every (defense, attack) pair over shared random scenarios. *)

val render : result list -> string
(** Text table of the comparison. *)
