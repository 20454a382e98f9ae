(* Tests for the benchmark's pure helpers. *)

open Perfbench
open Net

(* ---- the >= 10-beyond percentile rule ---- *)

let beyond a v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

let test_tail_rule () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  List.iter
    (fun n ->
      let p, v = Pct.tail (samples n) in
      Alcotest.(check int) (Printf.sprintf "ten beyond the tail of %d" n) 10 (beyond (samples n) v);
      Alcotest.(check bool) (Printf.sprintf "p < 99 below 1000 (n=%d)" n) true (p < 99.))
    [ 11; 37; 500; 999 ];
  let p, v = Pct.tail (samples 1000) in
  Alcotest.(check (float 0.)) "p99 from 1000 samples" 99. p;
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. v;
  let p, v = Pct.tail (samples 100_000) in
  Alcotest.(check (float 0.)) "capped at p99" 99. p;
  Alcotest.(check (float 0.)) "p99 of 1..100000" 99_000. v;
  let p, v = Pct.tail (samples 10) in
  Alcotest.(check (float 0.)) "median when nothing has ten beyond" 50. p;
  Alcotest.(check (float 0.)) "median of 1..10" 5. v;
  Alcotest.(check (float 0.)) "median" 3. (Pct.median [| 5.; 1.; 3.; 2.; 4. |])

(* ---- self time ---- *)

let span id ?(parent = -1) a b =
  {
    Trace.id;
    name = string_of_int id;
    parent;
    req = 0;
    start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b;
    words = 0.;
  }

let test_self_time_nested () =
  (* a root [0,100] with two children that overlap (they ran on two
     domains) and a grandchild inside the first *)
  let spans =
    [ span 0 0 100; span 1 ~parent:0 10 40; span 2 ~parent:0 30 60; span 3 ~parent:1 15 20 ]
  in
  let self = List.map (fun (s, t) -> (s.Trace.id, Float.round (t *. 1e9))) (Trace.self_times spans) in
  Alcotest.(check (list (pair int (float 0.))))
    "self = duration - covered by children"
    [ (0, 50.); (1, 25.); (2, 30.); (3, 5.) ]
    self

let test_spans_nest () =
  let tr = Trace.create ~enabled:true in
  Trace.with_span tr ~req:7 "outer" (fun () ->
      Trace.with_span tr "inner" (fun () -> ());
      Trace.add tr ~name:"task" ~start_ns:(Trace.now_ns ()) ~stop_ns:(Trace.now_ns ()) ~words:0. ());
  match Trace.spans tr with
  | [ inner; task; outer ] ->
    Alcotest.(check string) "outer closes last" "outer" outer.name;
    Alcotest.(check int) "inner's parent" outer.id inner.parent;
    Alcotest.(check int) "filed task's parent" outer.id task.parent;
    Alcotest.(check (list int)) "request id inherited" [ 7; 7; 7 ]
      [ inner.req; task.req; outer.req ];
    Alcotest.(check bool) "root has no parent" true (outer.parent < 0)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_disabled_records_nothing () =
  Trace.with_span Trace.off "x" (fun () -> Trace.record Trace.off "m" 1.);
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans Trace.off));
  Alcotest.(check int) "no samples" 0 (Array.length (Trace.samples Trace.off "m"))

(* ---- seeded inputs ---- *)

let entry ?(clean = true) ?(seen = [ "rv00" ]) prefix origins =
  {
    Collect.Correlator.x_prefix = Prefix.of_string prefix;
    x_seq = 1;
    x_started = 86400;
    x_ended = None;
    x_days = 3;
    x_max_origins = List.length origins;
    x_origins = Asn.Set.of_list (List.map Asn.make origins);
    x_clean = clean;
    x_seen_by = seen;
    x_first_detect = Some 86400;
    x_last_detect = Some 86400;
  }

let entries =
  [|
    entry "10.0.0.0/8" [ 1; 2 ];
    entry "10.1.0.0/16" [ 3; 4 ] ~seen:[ "rv00"; "rv01" ];
    entry "192.0.2.0/24" [ 5; 6 ] ~clean:false;
  |]

let bytes_of v = Marshal.to_string v [ Marshal.No_sharing ]

let archive_head ~seed =
  let source = Stream.Source.of_archive ~annotate:Inputs.annotate (Inputs.archive_params ~seed) in
  let head = List.init 20 (fun _ -> Stream.Source.next source) in
  Stream.Source.close source;
  head

let draws ~seed =
  let root = Inputs.sweep_root ~seed in
  List.init 5 (fun run -> Mutil.Rng.bits64 (Inputs.run_rng root ~point:3 ~run ~draw:1))

let test_same_seed_same_inputs () =
  let same what f =
    Alcotest.(check string) (what ^ ": same seed") (bytes_of (f ~seed:7)) (bytes_of (f ~seed:7));
    Alcotest.(check bool) (what ^ ": other seed") false (bytes_of (f ~seed:7) = bytes_of (f ~seed:8))
  in
  same "archive batches" archive_head;
  same "query plan" (fun ~seed -> Inputs.query_plan ~seed ~steps:50 entries);
  same "scenario streams" draws;
  Alcotest.(check string) "internet" (bytes_of (Inputs.internet ())) (bytes_of (Inputs.internet ()))

let test_plan_covers_kinds () =
  Array.iter
    (fun calls ->
      Alcotest.(check (list string)) "one call of each kind per step"
        (List.sort compare (List.map Inputs.kind_name (Array.to_list Inputs.kinds)))
        (List.sort compare
           (List.map (fun (c : Inputs.call) -> Inputs.kind_name c.kind) (Array.to_list calls))))
    (Inputs.query_plan ~seed:3 ~steps:20 entries)

(* ---- the serve oracle ---- *)

let store =
  Collect.Store.of_correlation
    { Collect.Correlator.c_vantages = [ "rv00"; "rv01" ]; c_entries = Array.to_list entries }

let test_oracle_accepts_served_replies () =
  let client = Serve.Client.connect (Serve.Server.create ~store ()) in
  Array.iter
    (fun (call : Inputs.call) ->
      Alcotest.(check bool)
        (Inputs.kind_name call.kind ^ " reply accepted")
        true
        (Oracle.reply_ok (Oracle.direct store call.request) (Serve.Client.call client call.request)))
    (Array.concat (Array.to_list (Inputs.query_plan ~seed:5 ~steps:10 entries)))

let test_oracle_flags_doctored_reply () =
  let q = Collect.Query.(empty |> prefix (Prefix.of_string "10.0.0.0/8") |> covered) in
  let expected = Oracle.direct store (Serve.Proto.Query q) in
  let genuine = Collect.Store.query store q in
  let reply entries = Serve.Proto.Entries { vantage_count = 2; entries } in
  Alcotest.(check bool) "genuine reply" true (Oracle.reply_ok expected (reply genuine));
  let flip = function
    | e :: rest -> { e with Collect.Correlator.x_clean = not e.Collect.Correlator.x_clean } :: rest
    | [] -> []
  in
  List.iter
    (fun (what, doctored) ->
      Alcotest.(check bool) (what ^ " flagged") false (Oracle.reply_ok expected doctored))
    [
      ("dropped entry", reply (List.tl genuine));
      ("flipped verdict", reply (flip genuine));
      ("wrong roster size", Serve.Proto.Entries { vantage_count = 3; entries = genuine });
      ("count for a query", Serve.Proto.Count_is (List.length genuine));
      ("refusal", Serve.Proto.Rejected "overloaded");
    ];
  let count = Oracle.direct store (Serve.Proto.Count Collect.Query.empty) in
  Alcotest.(check bool) "right count" true (Oracle.reply_ok count (Serve.Proto.Count_is 3));
  Alcotest.(check bool) "wrong count flagged" false (Oracle.reply_ok count (Serve.Proto.Count_is 4))

(* ---- BENCHMARK.json lists the catalogue ---- *)

let test_manifest_matches_catalogue () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let compact = String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' text))) in
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length compact then acc
      else go (i + 1) (if String.sub compact i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let contains needle = count needle > 0 in
  let metrics = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (m : Metrics.t) ->
      let entry =
        Printf.sprintf {|"name":"%s","unit":"%s","better":"%s"|} m.name m.unit
          (Metrics.better_to_string m.better)
      in
      Alcotest.(check bool) (m.name ^ " listed") true (contains entry))
    metrics;
  Alcotest.(check int) "no other metrics" (List.length metrics) (count {|"unit":|});
  List.iter
    (fun (w, _) ->
      Alcotest.(check bool) (w ^ " listed") true (contains (Printf.sprintf {|"name":"%s"|} w)))
    Runner.workloads

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "ten beyond the tail" `Quick test_tail_rule ]);
      ( "spans",
        [
          Alcotest.test_case "self time with nested children" `Quick test_self_time_nested;
          Alcotest.test_case "parents and request ids" `Quick test_spans_nest;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_inputs;
          Alcotest.test_case "query mix per step" `Quick test_plan_covers_kinds;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "served replies pass" `Quick test_oracle_accepts_served_replies;
          Alcotest.test_case "doctored reply flagged" `Quick test_oracle_flags_doctored_reply;
        ] );
      ( "manifest",
        [ Alcotest.test_case "BENCHMARK.json lists the catalogue" `Quick test_manifest_matches_catalogue ] );
    ]
