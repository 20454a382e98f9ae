(** Assembly and execution of one simulation scenario: a topology, a victim
    prefix with its legitimate origin AS(es), a set of attackers, and a
    MOAS-detection deployment plan.  This is the unit the paper averages
    over 15 runs per data point. *)

open Net

type policy_mode =
  | Shortest_path  (** the paper's SSFnet-like setting: no policy *)
  | Gao_rexford of Topology.Relationships.t
      (** customer/peer/provider economics with an explicit assignment *)
  | Gao_rexford_inferred
      (** Gao-Rexford with relationships inferred by the degree heuristic *)

type t = {
  graph : Topology.As_graph.t;
  victim_prefix : Prefix.t;
  legit_origins : Asn.t list;  (** one or two in the paper *)
  attackers : Attacker.t list;
  deployment : Moas.Deployment.t;
  attach_list_always : bool;
      (** attach a MOAS list even with a single origin (the paper lets
          single-origin routes go bare; default false) *)
  community_dropper_fraction : float;
      (** fraction of ASes that strip communities on export — the
          Section 4.3 deployment hazard (default 0) *)
  valid_at : float;  (** when legitimate origins announce (default 0) *)
  attack_at : float;  (** when attackers announce (default 50) *)
  mrai : float;  (** per-peer MRAI for every router (default 0) *)
  policy_mode : policy_mode;  (** routing-policy model (default shortest path) *)
}

val make :
  ?deployment:Moas.Deployment.t ->
  ?attach_list_always:bool ->
  ?community_dropper_fraction:float ->
  ?valid_at:float ->
  ?attack_at:float ->
  ?mrai:float ->
  ?policy_mode:policy_mode ->
  graph:Topology.As_graph.t ->
  victim_prefix:Prefix.t ->
  legit_origins:Asn.t list ->
  attackers:Attacker.t list ->
  unit ->
  t
(** Build a scenario; validates that origins and attackers are nodes of the
    graph and disjoint.
    @raise Invalid_argument on inconsistent inputs. *)

type outcome = {
  adopters : Asn.Set.t;
      (** non-attacker ASes whose best route for the victim prefix
          originates at an attacker after convergence *)
  eligible : int;  (** number of non-attacker ASes (the paper's "remaining") *)
  fraction_adopting : float;  (** |adopters| / eligible, the paper's y-axis *)
  alarm_count : int;  (** distinct alarms across all capable ASes *)
  alarming_ases : Asn.Set.t;  (** capable ASes that raised at least one *)
  detected : bool;  (** at least one alarm was raised somewhere *)
  first_alarm_at : float option;  (** simulation time of the first alarm *)
  detection_latency : float option;
      (** first alarm time minus [attack_at]: how quickly the first router
          noticed the conflict *)
  converged_at : float;  (** simulation time when the run went quiescent *)
  oracle_queries : int;  (** MOASRR lookups performed *)
  updates_sent : int;  (** total BGP UPDATE messages *)
  converged : bool;  (** the event queue drained *)
  capable : Asn.Set.t;  (** ASes that ran detection in this run *)
  droppers : Asn.Set.t;  (** ASes that stripped communities *)
}

val run :
  ?metrics:Obs.Registry.t ->
  ?prepare:(Bgp.Network.t -> unit) ->
  Mutil.Rng.t ->
  t ->
  outcome
(** Execute the scenario: legitimate announcements at [valid_at], a first
    convergence, bogus announcements at [attack_at], a second convergence,
    then measurement over the final Loc-RIBs.

    [metrics] (default {!Obs.Registry.noop}) is wired through the engine,
    every router and every detector, and additionally receives the
    network-wide aggregate counters [bgp_updates_sent_total],
    [bgp_updates_received_total], [moas_alarms_total] and
    [oracle_queries_total].

    [prepare] runs on the freshly wired network after the announcements
    are scheduled and before the engine starts — the hook the robustness
    experiments use to arm a fault injector.  The network is disposed of
    ({!Bgp.Network.dispose}) once the outcome is read, so [prepare] must
    not keep it for later.

    The run starts with a minor collection ([Gc.minor]), before it
    allocates anything: a scenario that fits in the minor heap then
    runs without a collection and promotes nothing. *)

val random :
  Mutil.Rng.t ->
  graph:Topology.As_graph.t ->
  stub:Asn.Set.t ->
  n_origins:int ->
  n_attackers:int ->
  deployment:Moas.Deployment.t ->
  t
(** The paper's random selection: origin ASes drawn from the stubs, the
    requested number of attackers drawn from all remaining ASes.
    @raise Invalid_argument when the graph is too small for the request. *)
