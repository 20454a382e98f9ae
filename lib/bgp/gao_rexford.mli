(** Gao-Rexford routing policies: prefer customer routes over peer routes
    over provider routes, and only export customer-learned (and own) routes
    to peers and providers — the economic policy model of the real
    inter-domain routing system.

    The paper's simulation routes on path length; this module supplies the
    policy-routing alternative used by the ablation that probes how the
    baseline (Normal BGP) damage depends on the routing model. *)

open Net

val local_pref_customer : int
(** LOCAL_PREF assigned to routes learned from customers (highest among
    learned routes; still below the origination default of 100, so a
    speaker always prefers the routes it originates itself). *)

val policy : Topology.Relationships.t -> self:Asn.t -> Policy.t
(** The import/export policy of AS [self] under the given relationship
    assignment:

    - import: stamp LOCAL_PREF according to the sending peer's relationship
      (unknown edges default to the peer preference);
    - export (valley-free): routes learned from customers and locally
      originated routes go to everyone; routes learned from peers or
      providers go to customers only. *)
