(** Ablations for the design points the paper discusses but does not plot:

    - Section 4.3: routers that drop the optional community attribute cause
      false alarms but must never make an invalid MOAS look valid;
    - Section 4.3: the MOAS list adds overhead only to multi-origin routes,
      and 99% of lists have at most 3 entries;
    - Section 4.3: a sub-prefix hijack is NOT caught by MOAS checking (a
      documented limitation, reproduced as a negative result);
    - Section 4.4: the DNS/MOASRR registry is consulted only when a
      conflict appears, not per update. *)

type dropper_point = {
  dropper_fraction : float;
  false_alarm_rate : float;
      (** fraction of benign runs (no attacker) in which some capable AS
          alarmed — alarms caused purely by list stripping *)
  missed_detection_rate : float;
      (** fraction of attacked runs in which NO capable AS alarmed *)
  mean_adopting : float;  (** adoption under attack despite full deployment *)
}

val community_droppers :
  ?seed:int64 ->
  ?jobs:int ->
  ?fractions:float list ->
  topology:Topology.Paper_topologies.t ->
  unit ->
  dropper_point list
(** Sweep the fraction of community-stripping ASes with full MOAS
    deployment, measuring false alarms (benign multi-origin prefix) and
    detection robustness (one attacker). *)

type subprefix_result = {
  moas_alarms : int;  (** alarms raised by MOAS checking — expected 0 *)
  hijacked_fraction : float;
      (** ASes whose longest-prefix match for a victim host goes to the
          attacker *)
}

val subprefix_hijack :
  ?seed:int64 -> topology:Topology.Paper_topologies.t -> unit -> subprefix_result
(** The Section 4.3 limitation: an attacker announcing a more-specific
    prefix captures traffic without ever creating a MOAS conflict. *)

type overhead_point = {
  list_size : int;  (** origins in the MOAS list *)
  communities_per_update : int;
  bytes_per_update : int;
      (** exact RFC 4271 octets of the UPDATE carrying the list *)
}

val list_overhead : max_size:int -> overhead_point list
(** Size cost of the MOAS list as a function of the origin count, measured
    on the actual wire encoding. *)

type query_accounting = {
  updates_processed : int;
  oracle_queries : int;
  queries_per_update : float;
}

val oracle_query_accounting :
  ?seed:int64 ->
  topology:Topology.Paper_topologies.t ->
  n_attackers:int ->
  unit ->
  query_accounting
(** How rarely the registry is consulted relative to BGP message volume
    (full deployment, one origin). *)

type policy_point = {
  policy_label : string;
  deployment_label : string;
  n_attackers : int;
  mean_adopting : float;
}

val mrai_sensitivity :
  ?seed:int64 ->
  ?jobs:int ->
  ?mrais:float list ->
  topology:Topology.Paper_topologies.t ->
  unit ->
  (float * float * int) list
(** [(mrai, adoption, updates)] with full deployment and 30% attackers:
    rate-limiting advertisement does not change the outcome, only message
    count. *)

val render_all : ?seed:int64 -> ?jobs:int -> unit -> string
(** Every ablation formatted for the benchmark report. *)
