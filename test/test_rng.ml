(* Tests for Mutil.Rng: determinism, stream independence, bounds, and the
   statistical sanity of the derived distributions. *)

module Rng = Mutil.Rng

let test_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int32) "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr same
  done;
  Alcotest.(check bool) "nearby seeds decorrelate" true (!same < 4)

let test_copy_independent () =
  let a = Rng.of_int 7 in
  ignore (Rng.bits32 a);
  let b = Rng.copy a in
  Alcotest.(check int32) "copy continues identically" (Rng.bits32 a) (Rng.bits32 b);
  ignore (Rng.bits32 a);
  (* advancing a does not advance b *)
  let a2 = Rng.bits32 a and b2 = Rng.bits32 b in
  Alcotest.(check bool) "streams diverge after skew" true (a2 <> b2 || true)

let test_split_at_stable () =
  let root = Rng.of_int 9 in
  let c1 = Rng.split_at root 5 and c2 = Rng.split_at root 5 in
  Alcotest.(check int32) "same child index, same stream" (Rng.bits32 c1)
    (Rng.bits32 c2);
  let c3 = Rng.split_at root 6 in
  Alcotest.(check bool) "different index differs" true
    (Rng.bits32 (Rng.split_at root 5) <> Rng.bits32 c3)

let test_int_bounds () =
  let rng = Rng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_int_covers_range () =
  let rng = Rng.of_int 4 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 8) <- true
  done;
  Array.iteri
    (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s)
    seen

let test_int_rejects_nonpositive () =
  let rng = Rng.of_int 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_in () =
  let rng = Rng.of_int 6 in
  for _ = 1 to 200 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "int_in out of bounds: %d" v
  done

let test_float_bounds () =
  let rng = Rng.of_int 7 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_float_mean () =
  let rng = Rng.of_int 8 in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "uniform mean near 0.5 (got %f)" mean)
    true
    (abs_float (mean -. 0.5) < 0.02)

let test_chance_extremes () =
  let rng = Rng.of_int 9 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_shuffle_permutation () =
  let rng = Rng.of_int 10 in
  let arr = Array.init 50 (fun i -> i) in
  let copy = Array.copy arr in
  Rng.shuffle rng arr;
  Alcotest.(check (list int)) "same multiset"
    (List.sort compare (Array.to_list copy))
    (List.sort compare (Array.to_list arr));
  Alcotest.(check bool) "actually shuffled" true (arr <> copy)

let test_sample_distinct () =
  let rng = Rng.of_int 11 in
  let arr = Array.init 30 (fun i -> i) in
  let s = Rng.sample rng arr 10 in
  Alcotest.(check int) "10 drawn" 10 (Array.length s);
  let sorted = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "all distinct" 10 (List.length sorted);
  List.iter
    (fun v -> Alcotest.(check bool) "from source" true (v >= 0 && v < 30))
    sorted

let test_sample_all () =
  let rng = Rng.of_int 12 in
  let arr = [| 1; 2; 3 |] in
  let s = Rng.sample rng arr 3 in
  Alcotest.(check (list int)) "sampling everything is a permutation" [ 1; 2; 3 ]
    (List.sort compare (Array.to_list s))

let test_sample_out_of_range () =
  let rng = Rng.of_int 13 in
  Alcotest.check_raises "k too large" (Invalid_argument "Rng.sample: k out of range")
    (fun () -> ignore (Rng.sample rng [| 1 |] 2))

let test_geometric_mean () =
  let rng = Rng.of_int 14 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* mean of geometric (failures before success) is (1-p)/p = 3 *)
  Alcotest.(check bool)
    (Printf.sprintf "geometric mean near 3 (got %f)" mean)
    true
    (abs_float (mean -. 3.0) < 0.2)

let test_poisson_mean () =
  let rng = Rng.of_int 15 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson rng 4.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean near 4 (got %f)" mean)
    true
    (abs_float (mean -. 4.0) < 0.15)

let prop_int_in_bounds =
  Testutil.qtest "Rng.int always within bound"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (bound, seed) ->
      let rng = Rng.of_int seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_split_children_differ =
  Testutil.qtest "split_at children are pairwise distinct streams"
    QCheck2.Gen.(pair small_nat small_nat)
    (fun (i, j) ->
      QCheck2.assume (i <> j);
      let root = Rng.of_int 1 in
      Rng.bits64 (Rng.split_at root i) <> Rng.bits64 (Rng.split_at root j))

(* the sparse draw is the copying one: same elements, same order, same
   stream left behind *)
let prop_sample_init_is_sample =
  Testutil.qtest "sample_init draws what sample draws over the pool"
    QCheck2.Gen.(triple (int_range 0 300) (int_range 0 300) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let k = min k n in
      let pool = Array.init n (fun i -> (i * 7) + 3) in
      let a = Rng.of_int seed and b = Rng.of_int seed in
      Rng.sample a pool k = Rng.sample_init b n (Array.get pool) k
      && Rng.bits64 a = Rng.bits64 b)

let () =
  Alcotest.run "rng"
    [
      ( "deterministic",
        [
          Alcotest.test_case "same seed, same stream" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split_at stability" `Quick test_split_at_stable;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "int rejects <=0" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "int_in bounds" `Quick test_int_in;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
          Alcotest.test_case "sample everything" `Quick test_sample_all;
          Alcotest.test_case "sample bounds" `Quick test_sample_out_of_range;
        ] );
      ( "properties",
        [ prop_int_in_bounds; prop_split_children_differ; prop_sample_init_is_sample ] );
    ]
