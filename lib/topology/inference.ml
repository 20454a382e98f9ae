open Net

type classified = {
  graph : As_graph.t;
  transit : Asn.Set.t;
  stub : Asn.Set.t;
}

let fold_path (graph, transit) path =
  match path with
  | [] -> (graph, transit)
  | [ only ] -> (As_graph.add_node graph only, transit)
  | first :: _ ->
    let rec walk graph transit = function
      | a :: (b :: _ as rest) ->
        let graph = if Asn.equal a b then graph else As_graph.add_edge graph a b in
        (* [a] has a successor towards the origin: it carries transit *)
        walk graph (Asn.Set.add a transit) rest
      | [ _ ] | [] -> (graph, transit)
    in
    walk (As_graph.add_node graph first) transit path

let classify (graph, transit) =
  let stub = Asn.Set.diff (As_graph.nodes graph) transit in
  { graph; transit; stub }

let infer paths =
  classify (List.fold_left fold_path (As_graph.empty, Asn.Set.empty) paths)
