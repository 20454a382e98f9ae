open Net
module Rng = Mutil.Rng

type t = {
  graph : As_graph.t;
  transit : Asn.Set.t;
  stub : Asn.Set.t;
}

let prune_weak_transit graph ~transit =
  let rec loop graph =
    let victims =
      Asn.Set.filter
        (fun asn -> As_graph.mem_node graph asn && As_graph.degree graph asn <= 1)
        transit
    in
    if Asn.Set.is_empty victims then graph
    else loop (Asn.Set.fold (fun asn g -> As_graph.remove_node g asn) victims graph)
  in
  loop graph

let sample rng (classified : Inference.classified) ~stub_count =
  let stub_pool = Array.of_list (Asn.Set.elements classified.stub) in
  if stub_count <= 0 || stub_count > Array.length stub_pool then None
  else begin
    let chosen_stubs = Rng.sample rng stub_pool stub_count in
    let keep =
      Array.fold_left
        (fun keep s ->
          Asn.Set.union
            (Asn.Set.add s keep)
            (As_graph.neighbors classified.graph s))
        Asn.Set.empty chosen_stubs
    in
    let graph = As_graph.induced classified.graph keep in
    let graph = prune_weak_transit graph ~transit:classified.transit in
    let surviving = As_graph.nodes graph in
    (* sampled stubs may lose their only provider to pruning; drop those *)
    let graph =
      Asn.Set.fold
        (fun asn g ->
          if Asn.Set.mem asn classified.stub && As_graph.degree g asn = 0 then
            As_graph.remove_node g asn
          else g)
        surviving graph
    in
    let surviving = As_graph.nodes graph in
    if Asn.Set.is_empty surviving || not (Algorithms.is_connected graph) then None
    else
      Some
        {
          graph;
          transit = Asn.Set.inter surviving classified.transit;
          stub = Asn.Set.inter surviving classified.stub;
        }
  end
