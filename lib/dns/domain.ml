(* labels stored least significant first, lower-cased *)
type t = string list

let root = []

let normalize_label label =
  if label = "" then invalid_arg "Domain: empty label";
  if String.length label > 63 then invalid_arg "Domain: label too long";
  String.lowercase_ascii label

let of_labels labels = List.map normalize_label labels

let of_string s =
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '.' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  if s = "" || s = "." then root
  else of_labels (String.split_on_char '.' s)

let to_string = function
  | [] -> "."
  | labels -> String.concat "." labels

let labels t = t

let parent = function
  | [] -> None
  | _ :: rest -> Some rest

let rec is_suffix ~suffix name =
  match (suffix, name) with
  | [], _ -> true
  | _, [] -> false
  | _ ->
    let ls = List.length suffix and ln = List.length name in
    if ls > ln then false
    else if ls = ln then suffix = name
    else
      (match name with
      | _ :: rest -> is_suffix ~suffix rest
      | [] -> false)

let prepend label t = normalize_label label :: t

let compare = Stdlib.compare
let equal a b = compare a b = 0

let reverse_of_prefix prefix =
  let open Net in
  let a, b, c, d = Ipv4.to_octets (Prefix.network prefix) in
  let significant = (Prefix.length prefix + 7) / 8 in
  let kept = List.filteri (fun i _ -> i < significant) [ a; b; c; d ] in
  (* in-addr.arpa reverses the octet order; labels are stored least
     significant first, so the most specific octet leads *)
  of_labels (List.map string_of_int (List.rev kept) @ [ "in-addr"; "arpa" ])

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
