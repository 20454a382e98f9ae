type t = int

let max_value = 0xffffffff

let of_int n =
  if n < 0 || n > max_value then invalid_arg "Ipv4.of_int: out of range";
  n

let to_int t = t

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range" in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets t =
  ((t lsr 24) land 0xff, (t lsr 16) land 0xff, (t lsr 8) land 0xff, t land 0xff)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    let parse x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 && x <> "" -> v
      | _ -> invalid_arg ("Ipv4.of_string: bad octet in " ^ s)
    in
    try of_octets (parse a) (parse b) (parse c) (parse d)
    with Invalid_argument _ -> invalid_arg ("Ipv4.of_string: " ^ s))
  | _ -> invalid_arg ("Ipv4.of_string: " ^ s)

let to_string t =
  let a, b, c, d = to_octets t in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let compare = Int.compare
let equal = Int.equal

let bit t i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit: index out of range";
  (t lsr (31 - i)) land 1 = 1
