(* Tests for the measurement pipeline: Synthetic_routeviews generation,
   the Section 3 MOAS-case semantics of Stream.Report.section3, and the
   Figure 4/5 reports. *)

open Net
module Srv = Measurement.Synthetic_routeviews
module Rp = Stream.Report
module Src = Stream.Source
module Sm = Stream.Monitor
module Day = Mutil.Day

(* a small but structurally complete archive for fast tests *)
let small_params =
  {
    Srv.default_params with
    Srv.universe_size = 500;
    initial_long_lived = 60;
    final_long_lived = 130;
    one_day_churn = 30;
    medium_churn = 15;
    event_1998_size = 120;
    event_2001_size = 90;
  }

let small_summary = lazy (Rp.section3 (Src.of_archive small_params))

let test_params_validated () =
  Alcotest.check_raises "universe too small"
    (Invalid_argument "Synthetic_routeviews: universe too small for the episodes")
    (fun () ->
      ignore
        (Testutil.fold_dumps
           { small_params with Srv.universe_size = 10 }
           ~init:() ~f:(fun () _ -> ())));
  Alcotest.check_raises "shrinking pool"
    (Invalid_argument "Synthetic_routeviews: long-lived pool cannot shrink")
    (fun () ->
      ignore
        (Srv.observed_days { small_params with Srv.final_long_lived = 10 }))

let test_observed_day_count () =
  let observed = Srv.observed_days small_params in
  Alcotest.(check int) "window length" Day.measurement_days (Array.length observed);
  let count = Array.fold_left (fun n o -> if o then n + 1 else n) 0 observed in
  Alcotest.(check int) "1279 observed days"
    (Day.measurement_days - small_params.Srv.missing_day_count)
    count

let test_event_days_observed () =
  let observed = Srv.observed_days small_params in
  let off day = Day.diff day Day.measurement_start in
  Alcotest.(check bool) "1998 event day observed" true
    observed.(off Srv.event_1998);
  Alcotest.(check bool) "2001 event day observed" true
    observed.(off Srv.event_2001)

let test_dump_stream_shape () =
  let days, first_table_size =
    Testutil.fold_dumps small_params ~init:(0, None) ~f:(fun (n, size) dump ->
        let size =
          match size with
          | None -> Some (List.length dump.Testutil.table)
          | s -> s
        in
        (n + 1, size))
  in
  Alcotest.(check int) "one dump per observed day"
    (Day.measurement_days - small_params.Srv.missing_day_count)
    days;
  Alcotest.(check (option int)) "full universe in each dump"
    (Some small_params.Srv.universe_size)
    first_table_size

let test_dumps_deterministic () =
  let collect () =
    Testutil.fold_dumps small_params ~init:[] ~f:(fun acc dump ->
        (dump.Testutil.day, List.length (List.filter (fun (_, o) -> Asn.Set.cardinal o > 1) dump.Testutil.table))
        :: acc)
  in
  Alcotest.(check bool) "same stream twice" true (collect () = collect ())

let total_cases s = List.length s.Rp.cases

let test_case_counts () =
  let summary = Lazy.force small_summary in
  let expected_total =
    small_params.Srv.final_long_lived + small_params.Srv.one_day_churn
    + small_params.Srv.medium_churn + small_params.Srv.event_1998_size
    + small_params.Srv.event_2001_size
  in
  (* a few medium/long episodes may fall entirely into collector gaps *)
  Alcotest.(check bool)
    (Printf.sprintf "total cases close to %d (got %d)" expected_total
       (total_cases summary))
    true
    (total_cases summary >= expected_total - 10
    && total_cases summary <= expected_total)

let test_event_spikes () =
  let summary = Lazy.force small_summary in
  let base_before =
    Rp.cases_on summary (Day.add Srv.event_1998 (-1))
  in
  let spike = Rp.cases_on summary Srv.event_1998 in
  Alcotest.(check bool)
    (Printf.sprintf "1998 spike (%d) >> base (%d)" spike base_before)
    true
    (spike >= base_before + small_params.Srv.event_1998_size);
  (* the 2001 event lasts two days *)
  let spike01 = Rp.cases_on summary Srv.event_2001 in
  let spike01_next = Rp.cases_on summary (Day.add Srv.event_2001 1) in
  Alcotest.(check bool) "2001 spike on both days" true
    (spike01 >= small_params.Srv.event_2001_size
    && spike01_next >= small_params.Srv.event_2001_size)

let test_one_day_attribution () =
  let summary = Lazy.force small_summary in
  let attributed = Rp.one_day_cases_attributed_to summary Srv.fault_as_1998 in
  Alcotest.(check int) "every 1998-event case is one-day and attributed"
    small_params.Srv.event_1998_size attributed

(* Section 3 over hand-written days: one batch per day of 10.0.0.0/8's
   announce/withdraw events by origin. *)
let days_of events_per_day =
  let p = Prefix.of_string "10.0.0.0/8" in
  let event time (o, announce) =
    {
      Sm.time;
      peer = Asn.make o;
      prefix = p;
      action =
        (if announce then Sm.Announce { origin = Asn.make o; moas_list = None }
         else Sm.Withdraw { origin = Asn.make o });
    }
  in
  Rp.section3
    (Src.of_batches
       (Array.of_list
          (List.mapi
             (fun day evs ->
               let time = day * Src.day_seconds in
               { Src.time; day = Some day; events = Array.of_list (List.map (event time) evs) })
             events_per_day)))

let test_duration_semantics_non_continuous () =
  (* the paper counts total MOAS days regardless of continuity: a prefix
     seen in MOAS on days 1 and 3 (not 2) has duration 2 *)
  let summary =
    days_of
      [ [ (1, true); (2, true) ]; [ (2, false) ]; [ (2, true); (3, true) ] ]
  in
  Alcotest.(check (list int)) "daily counts" [ 1; 0; 1 ]
    (List.map snd summary.Rp.daily_counts);
  match summary.Rp.cases with
  | [ case ] ->
    Alcotest.(check int) "duration counts MOAS days only" 2 case.Rp.c_days;
    Alcotest.(check int) "max origins tracked" 3 case.Rp.c_max_origins
  | l -> Alcotest.failf "expected one case, got %d" (List.length l)

let test_origin_set_changes_same_case () =
  (* per the paper, duration accrues regardless of which origins are
     involved: different conflicting pairs on different days are one case *)
  let summary = days_of [ [ (1, true); (2, true) ]; [ (2, false); (3, true) ] ] in
  match summary.Rp.cases with
  | [ case ] ->
    Alcotest.(check int) "one case" 2 case.Rp.c_days;
    Alcotest.check Testutil.asn_set_testable "origins accumulate"
      (Asn.Set.of_list [ 1; 2; 3 ])
      case.Rp.c_origins
  | l -> Alcotest.failf "expected one case, got %d" (List.length l)

let test_single_origin_never_a_case () =
  Alcotest.(check int) "no case from single origin" 0
    (total_cases (days_of [ [ (1, true) ] ]));
  (* a conflict that opens and closes within one day never shows in a
     daily dump *)
  Alcotest.(check int) "no case from a conflict between dumps" 0
    (total_cases (days_of [ [ (1, true); (2, true); (2, false) ] ]))

let test_duration_buckets_partition () =
  let summary = Lazy.force small_summary in
  let buckets = Rp.paper_buckets (List.map (fun c -> c.Rp.c_days) summary.Rp.cases) in
  let total = List.fold_left (fun n (_, c) -> n + c) 0 buckets in
  Alcotest.(check int) "buckets partition the cases" (total_cases summary) total

let test_duration_histogram_consistent () =
  (* Figure 5's exact-day bars hold the cases of exactly that duration *)
  let summary = Lazy.force small_summary in
  let buckets = Rp.paper_buckets (List.map (fun c -> c.Rp.c_days) summary.Rp.cases) in
  List.iter
    (fun (label, days) ->
      Alcotest.(check (option int)) label
        (Some (List.length (List.filter (fun c -> c.Rp.c_days = days) summary.Rp.cases)))
        (List.assoc_opt label buckets))
    [ ("1 day", 1); ("2 days", 2) ]

let test_multiplicity_fractions () =
  let summary = Lazy.force small_summary in
  let fractions = Rp.origin_multiplicity summary in
  let total = List.fold_left (fun s (_, f) -> s +. f) 0.0 fractions in
  Alcotest.(check bool) "fractions sum to 1" true (abs_float (total -. 1.0) < 1e-9);
  let two = Option.value ~default:0.0 (List.assoc_opt 2 fractions) in
  Alcotest.(check bool) "two-origin cases dominate" true (two > 0.8)

let test_median_ramp () =
  let summary = Lazy.force small_summary in
  let m98 = Rp.median_daily_in_year summary 1998 in
  let m01 = Rp.median_daily_in_year summary 2001 in
  Alcotest.(check bool)
    (Printf.sprintf "daily count grows (98: %.0f, 01: %.0f)" m98 m01)
    true (m01 > m98)

let test_report_texts () =
  let summary = Lazy.force small_summary in
  let fig4 = Rp.figure4_text summary in
  Testutil.check_contains ~what:"figure 4" fig4 "Figure 4";
  Testutil.check_contains ~what:"figure 4" fig4 "peak:";
  let fig5 = Rp.figure5_text summary in
  Testutil.check_contains ~what:"figure 5" fig5 "1 day";
  let table = Rp.summary_table summary in
  Testutil.check_contains ~what:"summary table" table "total MOAS cases";
  Testutil.check_contains ~what:"summary table" table "96.14%"

let () =
  Alcotest.run "measurement"
    [
      ( "synthetic_routeviews",
        [
          Alcotest.test_case "validation" `Quick test_params_validated;
          Alcotest.test_case "observed days" `Quick test_observed_day_count;
          Alcotest.test_case "event days observed" `Quick test_event_days_observed;
          Alcotest.test_case "stream shape" `Quick test_dump_stream_shape;
          Alcotest.test_case "deterministic" `Quick test_dumps_deterministic;
        ] );
      ( "moas_cases",
        [
          Alcotest.test_case "case counts" `Quick test_case_counts;
          Alcotest.test_case "event spikes" `Quick test_event_spikes;
          Alcotest.test_case "one-day attribution" `Quick test_one_day_attribution;
          Alcotest.test_case "non-continuous duration" `Quick
            test_duration_semantics_non_continuous;
          Alcotest.test_case "origin churn is one case" `Quick
            test_origin_set_changes_same_case;
          Alcotest.test_case "single origin ignored" `Quick
            test_single_origin_never_a_case;
          Alcotest.test_case "buckets partition" `Quick test_duration_buckets_partition;
          Alcotest.test_case "histogram consistent" `Quick
            test_duration_histogram_consistent;
          Alcotest.test_case "multiplicity" `Quick test_multiplicity_fractions;
          Alcotest.test_case "median ramp" `Quick test_median_ramp;
        ] );
      ("report", [ Alcotest.test_case "rendered text" `Quick test_report_texts ]);
    ]
