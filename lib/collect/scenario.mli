(** Canonical collector-mesh scenario over a paper topology.

    One reproducible workload exercises every correlation verdict the
    paper's multi-vantage argument distinguishes: an invalid-origin attack
    on [192.0.2.0/24] (the attacker advertises no MOAS list, so the
    conflict is flagged), a legitimate multihomed MOAS on
    [198.51.100.0/24] (both origins advertise the agreed list: clean), and
    a quiet single-origin prefix as control.  Vantages peer with the
    best-connected transit ASes, adjacent vantages sharing one feed so the
    merge stage has real duplicates to collapse.

    The scenario now comes in four {!arm}s.  [Baseline] is the workload
    above.  [Partitioned] additionally cuts, at [t=20] — after the valid
    routes converge but before the [t=30] attack — every peering of the
    first vantage's feed ASes via a {!Faults.Fault_plan}, blinding that
    vantage to the attack while the rest of the mesh still observes it:
    the "every-path blocking is implausible" experiment of paper §4 in
    miniature.  [Fault_churn] has {e no attacker at all}: the homes
    multihome the legitimate prefix {e without} MOAS lists (the paper's
    unregistered-but-legitimate case, which the MOAS-list consistency
    check false-alarms on) and the second home's peerings flap
    periodically, so the operational episode recurs and churns.
    [Scrubbed] is the Baseline attack under the paper's Section 4.3
    failure mode: every neighbor of the victim runs the
    {!Bgp.Community_policy} scrubbing class, so the victim's MOAS list is
    erased one hop out and never reaches a collector, while the
    attacker's side keeps its community behaviour.  All arms pick
    identical actors, so their captures differ only through the
    originations, the routing policies and the fault plan. *)

open Net

(** {2 Arms} *)

type arm =
  | Baseline  (** attack + listed multihoming, no faults *)
  | Partitioned  (** attack + listed multihoming, first vantage cut off *)
  | Fault_churn
      (** no attacker; unlisted multihoming with periodic link flaps *)
  | Scrubbed
      (** attack + listed multihoming; the victim's neighbors scrub
          communities, blinding the MOAS-list check (Section 4.3) *)

val arm_to_string : arm -> string
(** ["baseline"], ["partitioned"], ["fault-churn"], ["scrubbed"]. *)

val all_arms : arm list
(** The four arms — the scenario-corpus axes.  [Scrubbed] is appended
    last so the run indices (and pre-split random streams) of the three
    original arms never move. *)

(** {2 Workload design}

    The deterministic casting shared by every arm, exposed so other
    harnesses (the community head-to-head in [Experiments]) can rebuild
    the exact scenario workload on networks of their own configuration. *)

type design = {
  d_specs : Vantage.spec list;  (** the vantage roster *)
  d_legit : Asn.t;  (** legitimate origin of the attacked prefix *)
  d_attacker : Asn.t;  (** the hijacker (idle in [Fault_churn]) *)
  d_home_a : Asn.t;  (** first home of the multihomed prefix *)
  d_home_b : Asn.t;  (** second home, announced at [t=5] *)
  d_quiet : Asn.t;  (** origin of the quiet control prefix *)
  d_scrubbers : Asn.Set.t;
      (** the [Scrubbed] arm's scrub set: every neighbor of the victim —
          the minimal cut that erases its MOAS list everywhere *)
}

val design : ?vantages:int -> Topology.Paper_topologies.t -> design
(** Cast actors and vantages for a topology ([vantages] defaults to 3);
    a pure function of the topology. *)

val attacked_prefix : Prefix.t
(** [192.0.2.0/24], the invalid-origin conflict prefix. *)

val multihomed_prefix : Prefix.t
(** [198.51.100.0/24], the legitimate MOAS prefix. *)

val quiet_prefix : Prefix.t
(** [203.0.113.0/24], the single-origin control prefix. *)

val originate_arm : arm -> Bgp.Network.t -> design -> unit
(** Schedule the arm's originations (victim at [t=0] with its singleton
    list, attack at [t=30] unless [Fault_churn], the multihomed pair,
    the quiet control) on an already-built network. *)

val fault_plan :
  arm -> Topology.Paper_topologies.t -> design -> Faults.Fault_plan.t
(** The arm's fault plan (empty for [Baseline] and [Scrubbed]). *)

val attack_at : float
(** Attack origination time ([t=30]). *)

type t = {
  s_topology : string;  (** topology name *)
  s_arm : arm;
  s_specs : Vantage.spec list;
  s_streams : (string * Stream.Monitor.event array) list;
      (** captured per-vantage streams, the {!Mesh.run} input *)
  s_end_time : int;  (** capture end, integer milliseconds *)
  s_attacked : Prefix.t;  (** the invalid-origin conflict prefix *)
  s_multihomed : Prefix.t;  (** the legitimate MOAS prefix *)
  s_quiet : Prefix.t;  (** the single-origin control prefix *)
  s_legit : Asn.t;  (** legitimate origin of [s_attacked] *)
  s_attacker : Asn.t;
      (** would-be hijacker (originates nothing in [Fault_churn]) *)
  s_homes : Asn.Set.t;  (** the two origins of [s_multihomed] *)
  s_quiet_origin : Asn.t;  (** origin of [s_quiet] *)
  s_isolated : string option;  (** partitioned vantage, if any *)
  s_scrubbers : Asn.Set.t;
      (** the ASes scrubbing communities (empty outside [Scrubbed]) *)
  s_faults_injected : int;
}

val capture :
  ?metrics:Obs.Registry.t ->
  ?arm:arm ->
  seed:int64 ->
  vantages:int ->
  Topology.Paper_topologies.t ->
  t
(** Build the network, attach the mesh, originate the [arm]'s workload
    (default [Baseline]), arm its fault plan, and run to quiescence.
    Deterministic from [seed], the arm and the topology. *)

val describe : t -> string
(** One-paragraph run summary (topology, roster, actors, event counts). *)
