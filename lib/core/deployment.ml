open Net
module Rng = Mutil.Rng

type t = Disabled | Full | Fraction of float | Exactly of Asn.Set.t

let to_string = function
  | Disabled -> "Normal BGP"
  | Full -> "Full MOAS Detection"
  | Fraction f -> Printf.sprintf "%.0f%% MOAS Detection" (100.0 *. f)
  | Exactly s -> Printf.sprintf "MOAS Detection at %d ASes" (Asn.Set.cardinal s)

(* whether [asn] is in the increasing [a.(lo..hi-1)] *)
let rec mem_sorted a (asn : Asn.t) lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  asn = a.(mid) || if a.(mid) < asn then mem_sorted a asn (mid + 1) hi else mem_sorted a asn lo mid

let capable_set rng all = function
  | Disabled -> Asn.Set.empty
  | Full -> all
  | Exactly s -> Asn.Set.inter s all
  | Fraction f ->
    if f < 0.0 || f > 1.0 then
      invalid_arg "Deployment.capable_set: fraction out of [0,1]";
    let universe = Array.make (Asn.Set.cardinal all) 0 in
    ignore (Asn.Set.fold (fun asn i -> universe.(i) <- asn; i + 1) all 0);
    let count =
      int_of_float (Float.round (f *. float_of_int (Array.length universe)))
    in
    let chosen = Rng.sample rng universe count in
    Array.sort Asn.compare chosen;
    Asn.Set.filter (fun asn -> mem_sorted chosen asn 0 count) all
