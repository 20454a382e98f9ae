(** The circular dependency of DNS-based origin verification, quantified.

    Section 2 criticises the DNS-based proposal of Bates et al. ([3]):
    "given that DNS operations rely on the routing to function correctly,
    requiring BGP to interact with the DNS for correctness checking
    introduces a circular dependency".  Section 4.4 nevertheless proposes
    DNS MOASRR lookups as the origin-identification step.

    This study runs the MOAS detection pipeline with verification performed
    through a real iterative resolver ({!Dnssim.Resolver}) whose queries
    follow the querying AS's own BGP forwarding to reach the authoritative
    servers.  Three conditions:

    - oracle verification (the paper's idealised assumption);
    - DNS verification, attacker hijacks only the victim prefix;
    - DNS verification, attacker ALSO hijacks the authoritative server's
      prefix — the circular-dependency attack: ASes whose resolver traffic
      is captured cannot verify and fail open. *)

type condition = Oracle | Dns | Dns_with_dns_hijack

type point = {
  condition : condition;
  mean_adopting : float;  (** fraction of remaining ASes on the bogus route *)
  mean_failed_lookups : float;  (** MOASRR queries that could not complete *)
  mean_dns_queries : float;  (** server contacts across all resolvers *)
}

val study :
  ?seed:int64 ->
  ?runs:int ->
  ?n_attackers:int ->
  topology:Topology.Paper_topologies.t ->
  unit ->
  point list
(** Run all three conditions over shared random scenarios (defaults: 10
    runs, 3 attackers, full deployment). *)

val render : point list -> string
(** Text table with a short interpretation. *)
