open Net

type segment = Seq of Asn.t list | Set of Asn.Set.t

type t = segment list

let empty = []

let of_list ases = if ases = [] then [] else [ Seq ases ]

let prepend asn = function
  | Seq ases :: rest -> Seq (asn :: ases) :: rest
  | path -> Seq [ asn ] :: path

let segment_length = function
  | Seq ases -> List.length ases
  | Set _ -> 1

let length t = List.fold_left (fun acc s -> acc + segment_length s) 0 t

let rec mem_seq asn = function
  | [] -> false
  | a :: rest -> Asn.equal a asn || mem_seq asn rest

let rec contains t asn =
  match t with
  | [] -> false
  | Seq ases :: rest -> mem_seq asn ases || contains rest asn
  | Set s :: rest -> Asn.Set.mem asn s || contains rest asn

let rec last_as = function
  | [] -> None
  | [ asn ] -> Some asn
  | _ :: rest -> last_as rest

let rec origin_as = function
  | [] -> None
  | [ Seq ases ] -> last_as ases
  | [ Set _ ] -> None
  | _ :: rest -> origin_as rest

let rec last_as_or default = function
  | [] -> default
  | [ asn ] -> asn
  | _ :: rest -> last_as_or default rest

let rec origin_or ~default = function
  | [] -> default
  | [ Seq ases ] -> last_as_or default ases
  | [ Set _ ] -> default
  | _ :: rest -> origin_or ~default rest

let rec origin_candidates = function
  | [] -> Asn.Set.empty
  | [ Seq ases ] -> (
    match last_as ases with
    | Some origin -> Asn.Set.singleton origin
    | None -> Asn.Set.empty)
  | [ Set s ] -> s
  | _ :: rest -> origin_candidates rest

let ases t =
  List.fold_left
    (fun acc -> function
      | Seq l -> List.fold_left (fun acc a -> Asn.Set.add a acc) acc l
      | Set s -> Asn.Set.union s acc)
    Asn.Set.empty t

let aggregate a b =
  let seq_of t =
    (* flatten for comparison; sets break the common head *)
    match t with
    | Seq ases :: _ -> ases
    | _ -> []
  in
  let rec common xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when Asn.equal x y -> x :: common xs' ys'
    | _ -> []
  in
  let head = common (seq_of a) (seq_of b) in
  let rest =
    Asn.Set.diff
      (Asn.Set.union (ases a) (ases b))
      (Asn.Set.of_list head)
  in
  let tail = if Asn.Set.is_empty rest then [] else [ Set rest ] in
  if head = [] then tail else Seq head :: tail

(* AS_SETs compare by membership, never by the shape of their balanced
   trees: the same members added in a different order build a different
   tree, which the polymorphic compare would call a different path.  The
   order is otherwise the structural one -- sequences before sets,
   lexicographic within and across segments. *)
let compare_segment a b =
  match (a, b) with
  | Seq x, Seq y -> List.compare Asn.compare x y
  | Set x, Set y -> Asn.Set.compare x y
  | Seq _, Set _ -> -1
  | Set _, Seq _ -> 1

let compare a b = if a == b then 0 else List.compare compare_segment a b

let equal_segment a b =
  a == b
  ||
  match (a, b) with
  | Seq x, Seq y -> List.equal Asn.equal x y
  | Set x, Set y -> Asn.Set.equal x y
  | Seq _, Set _ | Set _, Seq _ -> false

let equal a b = a == b || List.equal equal_segment a b

let to_string t =
  let segment_to_string = function
    | Seq ases -> String.concat " " (List.map string_of_int ases)
    | Set s ->
      "{"
      ^ String.concat "," (List.map string_of_int (Asn.Set.elements s))
      ^ "}"
  in
  String.concat " " (List.map segment_to_string t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
