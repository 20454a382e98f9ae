(* Order statistics the way the benchmark reports them: a median and the
   highest percentile that still has at least ten samples beyond it,
   capped at p99 (so p99 is reported from 1,000 samples up). *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile of an ascending array. *)
let nearest_rank s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  (* the epsilon keeps 98% of 500 at rank 490, not 491 *)
  let k = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9)) in
  s.(max 0 (min (n - 1) (k - 1)))

let median a = nearest_rank (sorted a) 50.

(* With n samples the value of rank n - 10 has exactly ten beyond it. *)
let tail_percentile n =
  if n >= 1000 then 99.
  else if n > 10 then 100. *. float_of_int (n - 10) /. float_of_int n
  else 50.

let tail a =
  let p = tail_percentile (Array.length a) in
  (p, nearest_rank (sorted a) p)
