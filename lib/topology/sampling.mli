(** Stub sampling and pruning — the second half of the paper's Section 5.1
    pipeline that turns the inferred Internet graph into a small simulation
    topology:

    1. randomly select a number of stub ASes;
    2. keep those stubs together with their ISP peers, preserving all
       peering relations among the selected ASes;
    3. iteratively prune transit ASes left with at most one peer;
    4. verify the result is a connected graph. *)

open Net

type t = {
  graph : As_graph.t;
  transit : Asn.Set.t;  (** transit ASes surviving the pruning *)
  stub : Asn.Set.t;     (** sampled stub ASes surviving the pruning *)
}
(** A simulation topology with its role classification. *)

val prune_weak_transit : As_graph.t -> transit:Asn.Set.t -> As_graph.t
(** Iteratively remove transit ASes whose degree has fallen to 1 or 0.
    Stub ASes are never removed (the paper prunes transit ASes only). *)

val sample :
  Mutil.Rng.t ->
  Inference.classified ->
  stub_count:int ->
  t option
(** Run steps 1-4 with an explicit number of sampled stubs.  Returns [None]
    when the pruned graph is disconnected or empty (the paper would redo
    the selection; callers retry with fresh randomness). *)
