(** Graph algorithms over {!As_graph}: reachability, shortest paths and a
    few structural metrics used to characterise the generated topologies. *)

open Net

val bfs_distances : As_graph.t -> Asn.t -> int Asn.Map.t
(** Hop distance from a source to every reachable AS (source at 0). *)

val shortest_path : As_graph.t -> Asn.t -> Asn.t -> Asn.t list option
(** One shortest path from source to destination (inclusive of both), with
    deterministic tie-breaking towards lower AS numbers; [None] when
    unreachable. *)

val connected_components : As_graph.t -> Asn.Set.t list
(** Components, largest first; ties broken by smallest member. *)

val is_connected : As_graph.t -> bool
(** True when the graph has at most one component. *)

val largest_component : As_graph.t -> Asn.Set.t
(** Node set of the largest component (empty for the empty graph). *)

val diameter : As_graph.t -> int
(** Largest eccentricity over the graph; 0 for graphs with <2 nodes.
    Assumes connectivity (unreached pairs are ignored). *)

val average_degree : As_graph.t -> float
(** Mean peering degree. *)

val degree_histogram : As_graph.t -> (int * int) list
(** (degree, how many ASes have it), sorted by degree. *)
