open Net

(* [nodes] is the key set of [adj], kept beside it so that asking for
   the node set, once or more per simulation run, costs nothing *)
type t = { adj : Asn.Set.t Asn.Map.t; nodes : Asn.Set.t }

let empty = { adj = Asn.Map.empty; nodes = Asn.Set.empty }

let add_node t asn =
  if Asn.Map.mem asn t.adj then t
  else { adj = Asn.Map.add asn Asn.Set.empty t.adj; nodes = Asn.Set.add asn t.nodes }

let add_edge t a b =
  if Asn.equal a b then invalid_arg "As_graph.add_edge: self-loop";
  let t = add_node (add_node t a) b in
  let link x y adj =
    Asn.Map.update x
      (function
        | Some peers -> Some (Asn.Set.add y peers)
        | None -> Some (Asn.Set.singleton y))
      adj
  in
  { t with adj = link a b (link b a t.adj) }

let neighbors t asn =
  match Asn.Map.find_opt asn t.adj with
  | Some peers -> peers
  | None -> Asn.Set.empty

let remove_node t asn =
  match Asn.Map.find_opt asn t.adj with
  | None -> t
  | Some peers ->
    let adj = Asn.Map.remove asn t.adj in
    let adj =
      Asn.Set.fold
        (fun peer adj ->
          Asn.Map.update peer
            (function
              | Some s -> Some (Asn.Set.remove asn s)
              | None -> None)
            adj)
        peers adj
    in
    { adj; nodes = Asn.Set.remove asn t.nodes }

let mem_node t asn = Asn.Map.mem asn t.adj

let mem_edge t a b = Asn.Set.mem b (neighbors t a)

let degree t asn = Asn.Set.cardinal (neighbors t asn)

let nodes t = t.nodes

let node_count t = Asn.Map.cardinal t.adj

let edges t =
  Asn.Map.fold
    (fun a peers acc ->
      Asn.Set.fold (fun b acc -> if a < b then (a, b) :: acc else acc) peers acc)
    t.adj []
  |> List.sort compare

let edge_count t =
  Asn.Map.fold (fun _ peers acc -> acc + Asn.Set.cardinal peers) t.adj 0 / 2

let induced t keep =
  Asn.Map.fold
    (fun asn peers acc ->
      if Asn.Set.mem asn keep then
        let acc = add_node acc asn in
        Asn.Set.fold
          (fun peer acc ->
            if Asn.Set.mem peer keep && asn < peer then add_edge acc asn peer
            else acc)
          peers acc
      else acc)
    t.adj empty

let fold_nodes f t init = Asn.Map.fold (fun asn _ acc -> f asn acc) t.adj init

let of_edges edge_list =
  List.fold_left (fun t (a, b) -> add_edge t a b) empty edge_list
