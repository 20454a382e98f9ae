(* One benchmark run: set up three times, then measure passes for the
   requested seconds, check every answer, and print the result. *)

module type WORKLOAD = sig
  type fixture

  val jobs : int
  val setup : Trace.t -> seed:int -> fixture
  val pass : Trace.t -> fixture -> Pass.t
  val stamp : fixture -> (string * string) list
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("archive-pipeline", (module Archive));
    ("serve-live", (module Serve_live));
    ("bgp-sim", (module Bgp_sim));
  ]

let setups = 3

type result = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  stamp : (string * string) list;
  metrics : (Metrics.t * float) list;
  self_times : (string * int * float) list;  (** span name, count, total self s *)
}

let median_of l = Pct.median (Array.of_list l)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Top-level layer spans: children of a pass root that are not the
   benchmark's own checks. *)
let attributed tr =
  let spans = Trace.spans tr in
  let roots = Hashtbl.create 16 in
  List.iter
    (fun s -> if String.equal s.Trace.name "perfbench.pass" then Hashtbl.replace roots s.id ())
    spans;
  List.fold_left
    (fun acc s ->
      if Hashtbl.mem roots s.Trace.parent && not (String.starts_with ~prefix:"perfbench." s.name)
      then acc +. Trace.duration s
      else acc)
    0. spans

let self_time_table tr =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.Trace.name) in
      Hashtbl.replace tbl s.name (n + 1, total +. self))
    (Trace.self_times (Trace.spans tr));
  Hashtbl.fold (fun name (n, total) acc -> (name, n, total) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

let run (module W : WORKLOAD) ~workload ~seed ~seconds ~trace =
  let tr = Trace.create ~enabled:trace in
  let setup_times = ref [] and fixture = ref None in
  for _ = 1 to setups do
    let fx, dt = Pass.time (fun () -> W.setup tr ~seed) in
    setup_times := dt :: !setup_times;
    fixture := Some fx
  done;
  let fx = Option.get !fixture in
  (* With tracing on, untraced and traced passes alternate, so the
     tracing overhead is measured inside the same run. *)
  let plain = ref [] and traced = ref [] in
  let start = Trace.now_ns () in
  let elapsed () = Trace.seconds_between start (Trace.now_ns ()) in
  let rec loop () =
    (* every pass starts from a compacted heap: after three set-ups the
       first pass otherwise ran up to a quarter slower than set-up did *)
    Gc.compact ();
    plain := W.pass Trace.off fx :: !plain;
    if trace then
      traced := Trace.with_span tr "perfbench.pass" (fun () -> W.pass tr fx) :: !traced;
    if elapsed () < float_of_int seconds then loop ()
  in
  loop ();
  let passes = !plain @ !traced in
  let attempted = List.fold_left (fun n p -> n + p.Pass.attempted) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.Pass.failed) 0 passes in
  let concat f = Array.concat (List.map f !plain) in
  let steps = concat (fun p -> p.Pass.steps_ms) and ops = concat (fun p -> p.Pass.ops_us) in
  (* the tails are stamped, not gated: on a shared 2-core box they swung
     by up to a third between runs, wider than any useful bound *)
  let step_pct, step_tail = Pct.tail steps and op_pct, op_tail = Pct.tail ops in
  let pass_s = median_of (List.map (fun p -> p.Pass.work_s) !plain) in
  let value (metric : Metrics.t) =
    match metric.name with
    | "setup_s" -> median_of !setup_times
    | "peak_heap_mb" -> peak_heap_mb ()
    | "pass_s" -> pass_s
    | "step_p50_ms" -> Pct.median steps
    | "op_p50_us" -> Pct.median ops
    | "trace.overhead_share" ->
      (median_of (List.map (fun p -> p.Pass.work_s) !traced) -. pass_s) /. pass_s
    | "trace.attributed_share" ->
      attributed tr /. List.fold_left (fun s p -> s +. p.Pass.work_s) 0. !traced
    | name -> ( match Trace.samples tr name with [||] -> 0. | a -> Pct.median a)
  in
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  let cores = Domain.recommended_domain_count () in
  let stamp =
    [
      ("cores", string_of_int cores);
      ("jobs", string_of_int W.jobs);
      ("saturated", string_of_bool (W.jobs > cores));
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("setups", string_of_int setups);
      ("passes", string_of_int (List.length !plain));
      ("traced_passes", string_of_int (List.length !traced));
      ("step_samples", string_of_int (Array.length steps));
      ("step_tail_percentile", Printf.sprintf "%.2f" step_pct);
      ("step_tail_ms", Printf.sprintf "%.6g" step_tail);
      ("op_samples", string_of_int (Array.length ops));
      ("op_tail_percentile", Printf.sprintf "%.2f" op_pct);
      ("op_tail_us", Printf.sprintf "%.6g" op_tail);
    ]
    @ W.stamp fx
  in
  ( {
      workload;
      seed;
      trace;
      attempted;
      failed;
      stamp;
      metrics = List.map (fun m -> (m, value m)) catalogue;
      self_times = (if trace then self_time_table tr else []);
    },
    tr )

(* ---- output ---- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_string s = Printf.sprintf "\"%s\"" (String.escaped s)

let json_metrics ?(prefix = "") r =
  String.concat ","
    (List.map
       (fun ((m : Metrics.t), v) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
           (json_string (prefix ^ m.name))
           (json_float v) (json_string m.unit))
       r.metrics)

(* The result object; with several workloads each metric is named
   WORKLOAD/METRIC. *)
let result_line rs =
  let attempted = List.fold_left (fun n r -> n + r.attempted) 0 rs in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 rs in
  let metrics =
    match rs with
    | [ r ] -> json_metrics r
    | rs -> String.concat "," (List.map (fun r -> json_metrics ~prefix:(r.workload ^ "/") r) rs)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (failed = 0) attempted failed metrics

(* The full record: what the compare mode reads. *)
let record_line r =
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"trace\":%b,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"stamp\":{%s},\"metrics\":%s}"
    (json_string r.workload) r.seed r.trace (r.failed = 0) r.attempted r.failed
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_string v)) r.stamp))
    ("{" ^ json_metrics r ^ "}")

let print_report r =
  Printf.printf "perfbench %s seed=%d trace=%b\n" r.workload r.seed r.trace;
  List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) r.stamp;
  Printf.printf "  %d checks, %d failed\n" r.attempted r.failed;
  List.iter
    (fun ((m : Metrics.t), v) -> Printf.printf "  %-44s %14.6g %s\n" m.name v m.unit)
    r.metrics;
  if r.self_times <> [] then begin
    Printf.printf "  self time by span (s, all traced work incl. checks and set-up):\n";
    List.iter
      (fun (name, n, total) -> Printf.printf "    %-40s %8d %12.6f\n" name n total)
      r.self_times
  end
