open Net

type t = { asn : Asn.t; value : int }

let make asn value =
  if value < 0 || value > 0xffff then
    invalid_arg "Community.make: value out of 16-bit range";
  { asn; value }

let compare a b =
  match Asn.compare a.asn b.asn with
  | 0 -> Int.compare a.value b.value
  | c -> c

let equal a b = compare a b = 0

(* RFC 1997 reserves 0xFFFF0000-0xFFFFFFFF; the handful of assigned
   values below have planet-wide meaning and deserve their names in
   experiment reports instead of bare numbers *)
let well_known_asn = Asn.make 0xffff
let no_export = { asn = well_known_asn; value = 0xff01 }
let no_advertise = { asn = well_known_asn; value = 0xff02 }
let no_export_subconfed = { asn = well_known_asn; value = 0xff03 }
let blackhole = { asn = well_known_asn; value = 666 } (* RFC 7999 *)

let well_known_name t =
  if not (Asn.equal t.asn well_known_asn) then None
  else
    match t.value with
    | 0xff01 -> Some "NO_EXPORT"
    | 0xff02 -> Some "NO_ADVERTISE"
    | 0xff03 -> Some "NO_EXPORT_SUBCONFED"
    | 666 -> Some "BLACKHOLE"
    | _ -> None

let to_string t =
  match well_known_name t with
  | Some name -> name
  | None -> Printf.sprintf "%d:%d" (Asn.to_int t.asn) t.value

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
