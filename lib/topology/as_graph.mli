(** Undirected AS-level topology: each node is an Autonomous System, each
    edge a BGP peering (the two ASes exchange routing information), exactly
    the model of the paper's Section 5.1. *)

open Net

type t
(** An immutable AS graph. *)

val empty : t
(** The graph with no AS. *)

val add_node : t -> Asn.t -> t
(** Add an isolated AS (idempotent). *)

val add_edge : t -> Asn.t -> Asn.t -> t
(** Add a peering, inserting endpoints as needed.  Self-loops are rejected.
    @raise Invalid_argument on a self-loop. *)

val remove_node : t -> Asn.t -> t
(** Remove an AS and all its peerings (idempotent). *)

val mem_node : t -> Asn.t -> bool
(** Node membership. *)

val mem_edge : t -> Asn.t -> Asn.t -> bool
(** Peering membership (symmetric). *)

val neighbors : t -> Asn.t -> Asn.Set.t
(** Peers of an AS; empty set for an unknown AS. *)

val degree : t -> Asn.t -> int
(** Number of peers. *)

val nodes : t -> Asn.Set.t
(** All ASes: O(1), the set is kept with the graph. *)

val node_count : t -> int
(** Number of ASes. *)

val edge_count : t -> int
(** Number of peerings. *)

val edges : t -> (Asn.t * Asn.t) list
(** All peerings with the smaller AS first, sorted. *)

val induced : t -> Asn.Set.t -> t
(** Subgraph induced by a node set: the selected ASes with the peering
    relations among them completely preserved. *)

val fold_nodes : (Asn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over ASes in increasing order. *)

val of_edges : (Asn.t * Asn.t) list -> t
(** Build a graph from an edge list. *)
