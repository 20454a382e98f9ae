(** Peering and transit/stub inference from BGP table AS paths — the first
    half of the paper's Section 5.1 pipeline.

    From a route with AS path [1239 6453 4621] we infer that AS 6453 has two
    BGP peers (1239 and 4621) and mark every non-origin AS on the path as a
    transit AS; ASes never seen in a transit position are stubs. *)

open Net

type classified = {
  graph : As_graph.t;   (** inferred peering graph *)
  transit : Asn.Set.t;  (** ASes observed carrying traffic for others *)
  stub : Asn.Set.t;     (** the remaining ASes *)
}

val infer : Route_table.path list -> classified
(** Run the inference over a set of table paths.  Empty paths are ignored;
    repeated adjacencies collapse into a single peering. *)
