(* A node sits at a given depth on the path determined by the bits consumed
   so far; [value] holds the binding for the prefix ending at this node. *)
type 'a t = Leaf | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf

let is_empty = function
  | Leaf -> true
  | Node _ -> false

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

let rec add_at depth p v t =
  match t with
  | Leaf ->
    if depth = Prefix.length p then node (Some v) Leaf Leaf
    else if Prefix.bit p depth then node None Leaf (add_at (depth + 1) p v Leaf)
    else node None (add_at (depth + 1) p v Leaf) Leaf
  | Node { value; zero; one } ->
    if depth = Prefix.length p then node (Some v) zero one
    else if Prefix.bit p depth then node value zero (add_at (depth + 1) p v one)
    else node value (add_at (depth + 1) p v zero) one

let add p v t = add_at 0 p v t

let rec remove_at depth p t =
  match t with
  | Leaf -> Leaf
  | Node { value; zero; one } ->
    if depth = Prefix.length p then node None zero one
    else if Prefix.bit p depth then node value zero (remove_at (depth + 1) p one)
    else node value (remove_at (depth + 1) p zero) one

let remove p t = remove_at 0 p t

let find_opt p t =
  let len = Prefix.length p in
  let rec go depth t =
    match t with
    | Leaf -> None
    | Node { value; zero; one } ->
      if depth = len then value
      else if Prefix.bit p depth then go (depth + 1) one
      else go (depth + 1) zero
  in
  go 0 t

let mem p t = Option.is_some (find_opt p t)

let matches addr t =
  let rec go depth t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
      let acc =
        match value with
        | Some v -> (Prefix.make addr depth, v) :: acc
        | None -> acc
      in
      if depth = 32 then acc
      else if Ipv4.bit addr depth then go (depth + 1) one acc
      else go (depth + 1) zero acc
  in
  (* accumulated least-specific first, so the result is already
     most-specific first after the walk reverses naturally *)
  go 0 t []

let longest_match addr t =
  match matches addr t with
  | [] -> None
  | best :: _ -> Some best

let rec subtree_bindings prefix_net depth t acc =
  match t with
  | Leaf -> acc
  | Node { value; zero; one } ->
    let acc =
      if depth >= 32 then acc
      else
        let acc = subtree_bindings prefix_net (depth + 1) zero acc in
        subtree_bindings (prefix_net lor (1 lsl (31 - depth))) (depth + 1) one acc
    in
    (match value with
    | Some v -> (Prefix.make (Ipv4.of_int prefix_net) depth, v) :: acc
    | None -> acc)

let covered p t =
  let len = Prefix.length p in
  let rec descend depth t =
    match t with
    | Leaf -> []
    | Node { zero; one; _ } ->
      if depth = len then
        subtree_bindings (Ipv4.to_int (Prefix.network p)) depth t []
      else if Prefix.bit p depth then descend (depth + 1) one
      else descend (depth + 1) zero
  in
  descend 0 t

let update p f t =
  match f (find_opt p t) with
  | Some v -> add p v t
  | None -> remove p t

let fold f t init =
  let rec go net depth t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
      let acc =
        match value with
        | Some v -> f (Prefix.make (Ipv4.of_int net) depth) v acc
        | None -> acc
      in
      if depth = 32 then acc
      else
        let acc = go net (depth + 1) zero acc in
        go (net lor (1 lsl (31 - depth))) (depth + 1) one acc
  in
  go 0 0 t init

let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let cardinal t = fold (fun _ _ n -> n + 1) t 0

let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l
