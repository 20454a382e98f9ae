(* The correctness oracle, run on every pass.  Each check is one
   attempted operation; a wrong answer is a failed one. *)

open Net
module C = Collect.Correlator
module M = Stream.Monitor

let entry_equal (a : C.entry) (b : C.entry) =
  Prefix.equal a.x_prefix b.x_prefix
  && a.x_seq = b.x_seq && a.x_started = b.x_started && a.x_ended = b.x_ended
  && a.x_days = b.x_days
  && a.x_max_origins = b.x_max_origins
  && Asn.Set.equal a.x_origins b.x_origins
  && Bool.equal a.x_clean b.x_clean
  && List.equal String.equal a.x_seen_by b.x_seen_by
  && a.x_first_detect = b.x_first_detect
  && a.x_last_detect = b.x_last_detect

let entries_equal = List.equal entry_equal

(* What a serve request must answer, computed by a direct store call. *)
type expected = Entries of int * C.entry list | Count of int

let direct store = function
  | Serve.Proto.Query q ->
    Entries
      (List.length (Collect.Store.vantages store), Collect.Store.query store q)
  | Serve.Proto.Count q -> Count (List.length (Collect.Store.query store q))
  | _ -> invalid_arg "Oracle.direct: not a store query"

let reply_ok expected (reply : Serve.Proto.response) =
  match (expected, reply) with
  | Entries (n, es), Serve.Proto.Entries { vantage_count; entries } ->
    n = vantage_count && entries_equal es entries
  | Count n, Serve.Proto.Count_is m -> n = m
  | (Entries _ | Count _), _ -> false

(* Alerts one catch-all subscription must have received over a full live
   pass: one Opened per episode opened, one Closed per episode closed and
   one Flagged per episode the MOAS-list check failed. *)
type alert_tally = { opened : int; flagged : int; closed : int }

let no_alerts = { opened = 0; flagged = 0; closed = 0 }

let tally_alert t = function
  | Serve.Proto.Alert { alert; _ } -> (
    match alert.Serve.Proto.al_kind with
    | Serve.Proto.Opened -> Some { t with opened = t.opened + 1 }
    | Serve.Proto.Flagged -> Some { t with flagged = t.flagged + 1 }
    | Serve.Proto.Closed -> Some { t with closed = t.closed + 1 })
  | _ -> None

let expected_alerts (s : M.snapshot) =
  let flagged_closed =
    List.length (List.filter (fun e -> not e.M.e_clean) s.M.s_closed)
  in
  let flagged_open =
    List.length
      (List.filter
         (fun p ->
           match p.M.p_open with Some o -> not o.M.o_clean | None -> false)
         s.M.s_prefixes)
  in
  {
    opened = s.M.s_counters.M.c_opened;
    flagged = flagged_closed + flagged_open;
    closed = s.M.s_counters.M.c_closed;
  }

(* The archive replayed with the two fault ASes distrusted alerts on the
   two fault days only, once per prefix the fault hit. *)
let fault_day_alerts (params : Measurement.Synthetic_routeviews.params)
    (s : M.snapshot) =
  let module Srv = Measurement.Synthetic_routeviews in
  let alerting =
    List.filter_map
      (fun (i, w) -> if w.M.w_alerts > 0 then Some (i, w.M.w_alerts) else None)
      s.M.s_windows
  in
  alerting
  = [
      (Srv.event_1998, params.Srv.event_1998_size);
      (Srv.event_2001, params.Srv.event_2001_size);
    ]

(* A simulation outcome, reduced to what must not depend on job count. *)
let signature (o : Attack.Scenario.outcome) =
  Printf.sprintf "%h/%d/%d/%h/%d" o.fraction_adopting o.alarm_count
    o.updates_sent o.converged_at
    (Asn.Set.cardinal o.adopters)
