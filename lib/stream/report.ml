open Monitor

type episode_view = {
  v_prefix : Net.Prefix.t;
  v_seq : int;
  v_started : int;
  v_ended : int option;
  v_days : int;
  v_max_origins : int;
  v_origins : Net.Asn.Set.t;
  v_clean : bool;
}

let episodes snap =
  let closed =
    List.map
      (fun e ->
        {
          v_prefix = e.e_prefix;
          v_seq = e.e_seq;
          v_started = e.e_started;
          v_ended = Some e.e_ended;
          v_days = e.e_days;
          v_max_origins = e.e_max_origins;
          v_origins = e.e_origins_ever;
          v_clean = e.e_clean;
        })
      snap.s_closed
  in
  let opened =
    List.filter_map
      (fun p ->
        Option.map
          (fun o ->
            {
              v_prefix = p.p_prefix;
              v_seq = o.o_seq;
              v_started = o.o_started;
              v_ended = None;
              v_days = o.o_days;
              v_max_origins = o.o_max_origins;
              v_origins = o.o_origins_ever;
              v_clean = o.o_clean;
            })
          p.p_open)
      snap.s_prefixes
  in
  List.sort
    (fun a b ->
      let c = Net.Prefix.compare a.v_prefix b.v_prefix in
      if c <> 0 then c
      else
        let c = compare a.v_started b.v_started in
        if c <> 0 then c else compare a.v_seq b.v_seq)
    (closed @ opened)

let flagged_open snap =
  List.filter
    (function { p_open = Some { o_clean = false; _ }; _ } -> true | _ -> false)
    snap.s_prefixes

(* The paper's Figure 5 duration buckets, shared by the episode report
   and Figure 5 itself. *)
let paper_buckets days =
  List.map
    (fun (label, pred) -> (label, List.length (List.filter pred days)))
    [
      ("1 day", fun d -> d = 1);
      ("2 days", fun d -> d = 2);
      ("3-7 days", fun d -> d >= 3 && d <= 7);
      ("8-30 days", fun d -> d >= 8 && d <= 30);
      ("31-90 days", fun d -> d >= 31 && d <= 90);
      ("91-365 days", fun d -> d >= 91 && d <= 365);
      (">365 days", fun d -> d > 365);
    ]

let day_label cfg time =
  if time mod cfg.day_seconds = 0 && cfg.day_seconds = 86_400 then
    Mutil.Day.to_string (time / cfg.day_seconds)
  else string_of_int time

let window_label cfg idx =
  day_label cfg (idx * cfg.window)

let render ?(top_windows = 5) snap =
  let buf = Buffer.create 4096 in
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let cfg = snap.s_config in
  let c = snap.s_counters in
  let eps = episodes snap in
  let open_eps = List.filter (fun e -> e.v_ended = None) eps in
  let flagged = List.filter (fun e -> not e.v_clean) eps in
  say "== online MOAS monitor ==";
  say "config: %d s windows; buckets short <= %d d < medium <= %d d < long"
    cfg.window cfg.short_max_days cfg.medium_max_days;
  say "stream: %d updates (%d announces, %d withdraws) over %d observed days"
    c.c_updates c.c_announces c.c_withdraws c.c_days;
  say "        last event at %s" (day_label cfg snap.s_last_time);
  let tracked =
    List.length (List.filter (fun p -> p.p_origins <> []) snap.s_prefixes)
  in
  say "state:  %d prefixes announced, %d in open MOAS conflict" tracked
    (List.length open_eps);
  say
    "episodes: %d total (%d closed, %d open); %d validated by MOAS lists, %d \
     flagged; %d alerts raised"
    (List.length eps) c.c_closed (List.length open_eps)
    (List.length eps - List.length flagged)
    (List.length flagged) c.c_alerts;
  (* recurrence *)
  let recurrent =
    List.filter
      (fun p -> p.p_closed_count + (if p.p_open = None then 0 else 1) > 1)
      snap.s_prefixes
  in
  let max_prefix, max_eps =
    List.fold_left
      (fun (bp, bn) p ->
        let n = p.p_closed_count + if p.p_open = None then 0 else 1 in
        if n > bn then (Some p.p_prefix, n) else (bp, bn))
      (None, 0) snap.s_prefixes
  in
  (match max_prefix with
  | Some prefix when max_eps > 0 ->
    say "recurrence: %d prefixes conflicted more than once; max %d episodes (%s)"
      (List.length recurrent) max_eps
      (Net.Prefix.to_string prefix)
  | _ -> say "recurrence: no prefix has conflicted yet");
  (* duration classes *)
  say "";
  say "-- episode durations (observed days in conflict) --";
  let count cls =
    List.length (List.filter (fun e -> bucket_of_days cfg e.v_days = cls) eps)
  in
  Buffer.add_string buf
    (Mutil.Text_table.render ~header:[ "class"; "episodes" ]
       (List.map
          (fun cls -> [ bucket_label cls; string_of_int (count cls) ])
          [ Monitor.Short; Monitor.Medium; Monitor.Long ]));
  say "";
  say "-- paper duration buckets (Figure 5) --";
  Buffer.add_string buf
    (Mutil.Text_table.render ~header:[ "duration"; "episodes" ]
       (List.map
          (fun (label, n) -> [ label; string_of_int n ])
          (paper_buckets (List.map (fun e -> max 1 e.v_days) eps))));
  (* alert windows *)
  say "";
  say "-- busiest alert windows (top %d by alerts) --" top_windows;
  let ranked =
    List.filter (fun (_, w) -> w.w_alerts > 0) snap.s_windows
    |> List.stable_sort (fun (ia, a) (ib, b) ->
           let c = compare b.w_alerts a.w_alerts in
           if c <> 0 then c else compare ia ib)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  (match ranked with
  | [] -> say "(no alerts)"
  | ranked ->
    Buffer.add_string buf
      (Mutil.Text_table.render
         ~header:[ "window start"; "updates"; "opened"; "closed"; "alerts" ]
         (List.map
            (fun (idx, w) ->
              [
                window_label cfg idx;
                string_of_int w.w_updates;
                string_of_int w.w_opened;
                string_of_int w.w_closed;
                string_of_int w.w_alerts;
              ])
            (take top_windows ranked))));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Section 3: MOAS cases over the daily archive (Figures 4 and 5) *)

module Day = Mutil.Day
module Srv = Measurement.Synthetic_routeviews
module Table = Mutil.Text_table

type case = {
  c_prefix : Net.Prefix.t;
  c_days : int;
  c_max_origins : int;
  c_origins : Net.Asn.Set.t;
}

type section3 = { daily_counts : (Day.t * int) list; cases : case list }

let cases snap =
  let add m e =
    Net.Prefix.Map.update e.v_prefix
      (fun prev ->
        Some
          (match prev with
          | None ->
            {
              c_prefix = e.v_prefix;
              c_days = e.v_days;
              c_max_origins = e.v_max_origins;
              c_origins = e.v_origins;
            }
          | Some c ->
            {
              c with
              c_days = c.c_days + e.v_days;
              c_max_origins = max c.c_max_origins e.v_max_origins;
              c_origins = Net.Asn.Set.union c.c_origins e.v_origins;
            }))
      m
  in
  List.fold_left add Net.Prefix.Map.empty (episodes snap)
  |> Net.Prefix.Map.filter (fun _ c -> c.c_days > 0)
  |> Net.Prefix.Map.bindings |> List.map snd

let section3 source =
  let m = Monitor.create Monitor.default_config in
  let daily =
    Source.fold source ~init:[] ~f:(fun acc (b : Source.batch) ->
        Array.iter (Monitor.ingest m) b.Source.events;
        match b.Source.day with
        | Some day ->
          Monitor.mark_day m ~time:b.Source.time;
          (day, Monitor.open_count m) :: acc
        | None ->
          Monitor.settle m ~time:b.Source.time;
          acc)
  in
  { daily_counts = List.rev daily; cases = cases (Monitor.snapshot m) }

let count_cases pred s = List.length (List.filter pred s.cases)

let max_daily s =
  match s.daily_counts with
  | [] -> invalid_arg "Stream.Report.max_daily: no observed day"
  | first :: rest ->
    List.fold_left
      (fun (bd, bc) (d, c) -> if c > bc then (d, c) else (bd, bc))
      first rest

let cases_on s day = Option.value ~default:0 (List.assoc_opt day s.daily_counts)

let one_day_cases_attributed_to s asn =
  count_cases (fun c -> c.c_days = 1 && Net.Asn.Set.mem asn c.c_origins) s

let origin_multiplicity s =
  let total = float_of_int (max 1 (List.length s.cases)) in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.replace tbl c.c_max_origins
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c.c_max_origins)))
    s.cases;
  Hashtbl.fold (fun k n acc -> (k, float_of_int n /. total) :: acc) tbl []
  |> List.sort compare

let median_daily_in_year s year =
  Mutil.Stats.median
    (List.filter_map
       (fun (day, count) ->
         let y, _, _ = Day.to_ymd day in
         if y = year then Some (float_of_int count) else None)
       s.daily_counts)

let figure4_text s =
  let series =
    {
      Mutil.Ascii_plot.label = "daily MOAS conflicts";
      points =
        List.map
          (fun (day, count) ->
            (float_of_int (Day.diff day Day.measurement_start), float_of_int count))
          s.daily_counts;
    }
  in
  let max_day, max_count = max_daily s in
  Mutil.Ascii_plot.plot ~height:18
    ~title:"Figure 4: number of MOAS conflicts, 11/1997 - 7/2001"
    ~x_label:"days since 1997-11-08" ~y_label:"# of conflicts" [ series ]
  ^ Printf.sprintf "  peak: %d conflicts on %s\n  event days: %s -> %d, %s -> %d\n"
      max_count (Day.to_string max_day)
      (Day.to_string Srv.event_1998) (cases_on s Srv.event_1998)
      (Day.to_string Srv.event_2001) (cases_on s Srv.event_2001)

let figure5_text s =
  Mutil.Ascii_plot.bar_chart
    ~title:"Figure 5: duration of MOAS cases (days, bucketed)"
    (List.map
       (fun (label, n) -> (label, float_of_int n))
       (paper_buckets (List.map (fun c -> c.c_days) s.cases)))

let summary_table s =
  let total = List.length s.cases in
  let one_day = count_cases (fun c -> c.c_days = 1) s in
  let one_day_frac = float_of_int one_day /. float_of_int (max 1 total) in
  let ev98 = one_day_cases_attributed_to s Srv.fault_as_1998 in
  let ev98_frac = float_of_int ev98 /. float_of_int (max 1 one_day) in
  let multiplicity = origin_multiplicity s in
  let frac_of n = Option.value ~default:0.0 (List.assoc_opt n multiplicity) in
  let rows =
    [
      [ "observed days"; "1279"; string_of_int (List.length s.daily_counts) ];
      [ "total MOAS cases"; "~3824"; string_of_int total ];
      [ "one-day cases"; "1373 (35.9%)";
        Printf.sprintf "%d (%s)" one_day (Table.percent_cell ~decimals:1 one_day_frac) ];
      [ "one-day cases from 1998-04-07 fault"; "82.7%";
        Table.percent_cell ~decimals:1 ev98_frac ];
      [ "median daily count 1998"; "683";
        Table.float_cell ~decimals:0 (median_daily_in_year s 1998) ];
      [ "median daily count 2001"; "1294";
        Table.float_cell ~decimals:0 (median_daily_in_year s 2001) ];
      [ "cases involving 2 origin ASes"; "96.14%";
        Table.percent_cell ~decimals:2 (frac_of 2) ];
      [ "cases involving 3 origin ASes"; "2.7%";
        Table.percent_cell ~decimals:2 (frac_of 3) ];
      [ "2001-04-06 fault day count"; "~2260 (incl. base)";
        string_of_int (cases_on s Srv.event_2001) ];
    ]
  in
  Table.render ~header:[ "Section 3 statistic"; "paper"; "measured" ] rows
