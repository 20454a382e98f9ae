open Net

(* The order on route attributes, given both path lengths: a scan over
   the candidates measures each path once instead of once per
   comparison. *)
let compare_attrs a a_len b b_len =
  let by_local_pref = Int.compare b.Route.local_pref a.Route.local_pref in
  if by_local_pref <> 0 then by_local_pref
  else
    let by_length = Int.compare a_len b_len in
    if by_length <> 0 then by_length
    else
      Int.compare (Route.origin_rank a.Route.origin) (Route.origin_rank b.Route.origin)

let compare_routes a a_len b b_len =
  let by_attrs = compare_attrs a a_len b b_len in
  if by_attrs <> 0 then by_attrs
  else Asn.compare a.Route.learned_from b.Route.learned_from

let path_length r = As_path.length r.Route.as_path

let prefer a b = compare_routes a (path_length a) b (path_length b)

let prefer_attrs a b = compare_attrs a (path_length a) b (path_length b)

(* the first most preferred route *)
let rec best_of b b_len = function
  | [] -> b
  | r :: rest ->
    let r_len = path_length r in
    if compare_routes r r_len b b_len < 0 then best_of r r_len rest
    else best_of b b_len rest

let best = function
  | [] -> None
  | first :: rest -> Some (best_of first (path_length first) rest)

let rank routes = List.sort prefer routes

let rec mem_route r = function
  | [] -> false
  | c :: rest -> Route.equal r c || mem_route r rest

let best_with_incumbent ~incumbent candidates =
  match candidates with
  | [] -> None
  | first :: rest ->
    let challenger = best_of first (path_length first) rest in
    (match incumbent with
    | Some current when mem_route current candidates ->
      if prefer_attrs challenger current < 0 then Some challenger else incumbent
    | Some _ | None -> Some challenger)
