(* perfbench: the repository's benchmark.

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1

   prints a human-readable report, a "perfbench-record" line with the
   stamped record (what compare.py reads), and as its last line the
   result object {"correct","attempted","failed","metrics"}.  With
   --trace 1 the spans go to _build/perfbench/WORKLOAD-seedN.spans.jsonl.
   --workload all runs every workload in turn; its last line names each
   metric WORKLOAD/METRIC.  --list prints the metric catalogue. *)

open Perfbench

let usage = "main.exe --workload NAME|all --seed N --seconds S --trace 0|1"

let list_metrics () =
  let show title metrics =
    Printf.printf "%s\n" title;
    List.iter
      (fun (m : Metrics.t) ->
        Printf.printf "  %-44s %-6s %-6s -> %s\n" m.name m.unit
          (Metrics.better_to_string m.better) m.moves)
      metrics
  in
  Printf.printf "workloads: %s\n" (String.concat ", " (List.map fst Runner.workloads));
  show "end-to-end (--trace 0):" Metrics.end_to_end;
  show "per-layer (--trace 1):" Metrics.per_layer

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let list = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--list", Arg.Set list, " print the metric catalogue and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !list then (list_metrics (); exit 0);
  let names = if !workload = "all" then List.map fst Runner.workloads else [ !workload ] in
  List.iter
    (fun name ->
      if not (List.mem_assoc name Runner.workloads) then begin
        Printf.eprintf "perfbench: unknown workload %S (one of %s, or all)\n" name
          (String.concat ", " (List.map fst Runner.workloads));
        exit 2
      end)
    names;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("perfbench: bad arguments\nusage: " ^ usage);
    exit 2
  end;
  let run name =
    let r, tr =
      Runner.run (List.assoc name Runner.workloads) ~workload:name ~seed:!seed
        ~seconds:!seconds ~trace:(!trace = 1)
    in
    Runner.print_report r;
    if r.Runner.trace then begin
      let path = Printf.sprintf "_build/perfbench/%s-seed%d.spans.jsonl" name !seed in
      mkdir_p (Filename.dirname path);
      Trace.write tr path;
      Printf.printf "spans written to %s\n" path
    end;
    print_endline ("perfbench-record " ^ Runner.record_line r);
    r
  in
  let results = List.map run names in
  print_endline (Runner.result_line results)
