type t = {
  mutable state : int64; (* PCG32 state *)
  inc : int64;           (* PCG32 stream selector, always odd *)
}

let multiplier = 6364136223846793005L

(* SplitMix64 finaliser: turns correlated seeds into well-mixed values. *)
let splitmix64 x =
  let open Int64 in
  let z = add x 0x9e3779b97f4a7c15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let make ~state ~inc =
  let t = { state = 0L; inc = Int64.logor (Int64.shift_left inc 1) 1L } in
  t.state <- Int64.add state t.inc;
  (* one warm-up step as in the PCG reference implementation *)
  t.state <- Int64.add (Int64.mul t.state multiplier) t.inc;
  t

let create ~seed =
  let s1 = splitmix64 seed in
  let s2 = splitmix64 s1 in
  make ~state:s1 ~inc:s2

let of_int n = create ~seed:(Int64.of_int n)

let copy t = { state = t.state; inc = t.inc }

let bits32 t =
  let open Int64 in
  let old = t.state in
  t.state <- add (mul old multiplier) t.inc;
  let xorshifted =
    to_int32 (shift_right_logical (logxor (shift_right_logical old 18) old) 27)
  in
  let rot = to_int (shift_right_logical old 59) in
  Int32.logor
    (Int32.shift_right_logical xorshifted rot)
    (Int32.shift_left xorshifted ((-rot) land 31))

let bits64 t =
  let hi = Int64.of_int32 (bits32 t) in
  let lo = Int64.of_int32 (bits32 t) in
  Int64.logor
    (Int64.shift_left hi 32)
    (Int64.logand lo 0xffffffffL)

let split_at t i =
  let mixed = splitmix64 (Int64.logxor t.state (Int64.of_int (0x1234567 + i))) in
  create ~seed:(Int64.add mixed (Int64.of_int i))

let uint32_to_int x = Int32.to_int x land 0xffffffff

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound > 0x40000000 then invalid_arg "Rng.int: bound too large";
  (* rejection sampling over the low bits to avoid modulo bias *)
  let mask =
    let rec grow m = if m >= bound - 1 then m else grow ((m lsl 1) lor 1) in
    grow 1
  in
  let rec draw () =
    let v = uint32_to_int (bits32 t) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = uint32_to_int (bits32 t) in
  bound *. (float_of_int v /. 4294967296.0)

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t arr k =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let scratch = Array.copy arr in
  (* partial Fisher-Yates: the first k slots are a uniform sample *)
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = scratch.(i) in
    scratch.(i) <- scratch.(j);
    scratch.(j) <- tmp
  done;
  Array.sub scratch 0 k

(* [sample]'s partial Fisher-Yates with the pool's displaced positions
   in a table: position [i] is final once drawn, as every later swap
   draws from past it *)
let sample_init t n get k =
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let moved = Hashtbl.create (2 * k) in
  let at i = match Hashtbl.find moved i with v -> v | exception Not_found -> get i in
  Array.init k (fun i ->
      let j = int_in t i (n - 1) in
      let drawn = at j in
      Hashtbl.replace moved j (at i);
      drawn)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  if p = 1.0 then 0
  else
    let u = max (float t 1.0) 1e-12 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let poisson t lambda =
  if lambda < 0.0 then invalid_arg "Rng.poisson: negative lambda";
  let limit = exp (-.lambda) in
  let rec loop k prod =
    let prod = prod *. float t 1.0 in
    if prod <= limit then k else loop (k + 1) prod
  in
  if lambda = 0.0 then 0 else loop 0 1.0

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = max (float t 1.0) 1e-12 in
  -.log u /. rate
