type t = {
  (* a float ref is an all-float record, stored unboxed: the queue
     advances it once per event and allocates nothing *)
  clock : float ref;
  mutable executed : int;
  queue : handler Event_queue.t;
  mutable queue_hwm : int;
  (* observability: the registry is Obs.Registry.noop by default, in which
     case every handle below is inert and [live] lets the run loop skip
     even the wall-clock reads *)
  metrics : Obs.Registry.t;
  live : bool;
  wall_clock : unit -> float;
  events_c : Obs.Registry.Counter.t;
  queue_hwm_g : Obs.Registry.Gauge.t;
  run_wall_g : Obs.Registry.Gauge.t;
  wall_per_10k_h : Obs.Registry.Histogram.t;
}

and handler = t -> unit

(* the queue's filler: a top-level closure, statically allocated *)
let idle : handler = fun _ -> ()

(* The queue storage of the last engine on this domain to run to
   quiescence, which the next engine created takes over: a sweep's
   engines share one set of queue arrays instead of growing a fresh set,
   in the major heap, per run. *)
let spare = Domain.DLS.new_key (fun () -> Event_queue.create ~filler:idle ())

(* one histogram observation per this many executed events *)
let wall_block = 10_000

let create ?(metrics = Obs.Registry.noop) ?(wall_clock = Sys.time) () =
  let queue = Event_queue.create ~filler:idle () in
  Event_queue.transfer ~from:(Domain.DLS.get spare) queue;
  {
    clock = ref 0.0;
    executed = 0;
    queue;
    queue_hwm = 0;
    metrics;
    live = not (Obs.Registry.is_noop metrics);
    wall_clock;
    events_c = Obs.Registry.counter metrics "sim_events_executed";
    queue_hwm_g = Obs.Registry.gauge metrics "sim_queue_depth_hwm";
    run_wall_g = Obs.Registry.gauge metrics "sim_run_wall_s";
    wall_per_10k_h = Obs.Registry.histogram metrics "sim_wall_s_per_10k_events";
  }

let now t = !(t.clock)
let clock t = t.clock
let metrics t = t.metrics

let note_depth t =
  let depth = Event_queue.length t.queue in
  if depth > t.queue_hwm then t.queue_hwm <- depth

let schedule t ~delay h =
  if delay < 0.0 || Float.is_nan delay then
    invalid_arg "Engine.schedule: negative delay";
  Event_queue.push_after t.queue t.clock ~delay h;
  note_depth t

let schedule_at t ~time h =
  if time < !(t.clock) || Float.is_nan time then
    invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.push t.queue ~time h;
  note_depth t

(* Cancellation is a wrapper, not a queue operation: the entry stays in the
   heap (removal from a binary heap is O(n)) and its handler checks the
   handle when popped.  A cancelled event therefore still counts as one
   executed event when its (empty) slot is reached. *)
type handle = { mutable armed : bool }

let cancel handle = handle.armed <- false
let is_cancelled handle = not handle.armed

let guard handle h engine = if handle.armed then h engine

let schedule_cancellable t ~delay h =
  let handle = { armed = true } in
  schedule t ~delay (guard handle h);
  handle

let schedule_at_cancellable t ~time h =
  let handle = { armed = true } in
  schedule_at t ~time (guard handle h);
  handle

let pending t = Event_queue.length t.queue
let events_executed t = t.executed
let queue_high_water t = t.queue_hwm

type outcome = Quiescent | Event_limit_reached | Time_limit_reached

let run ?(max_events = max_int) ?(until = infinity) t =
  let wall_start = if t.live then t.wall_clock () else 0.0 in
  let block_start = ref wall_start in
  let start_executed = t.executed in
  let rec loop budget =
    if budget <= 0 then Event_limit_reached
    else if Event_queue.is_empty t.queue then Quiescent
    else begin
      if Event_queue.min_time_exceeds t.queue until then Time_limit_reached
      else begin
        let h = Event_queue.pop_min_into t.queue t.clock in
        t.executed <- t.executed + 1;
        h t;
        if t.live && (t.executed - start_executed) mod wall_block = 0 then begin
          let now = t.wall_clock () in
          Obs.Registry.Histogram.observe t.wall_per_10k_h (now -. !block_start);
          block_start := now
        end;
        loop (budget - 1)
      end
    end
  in
  let outcome = loop max_events in
  if outcome = Quiescent then Event_queue.transfer ~from:t.queue (Domain.DLS.get spare);
  if t.live then begin
    Obs.Registry.Counter.add t.events_c (t.executed - start_executed);
    Obs.Registry.Gauge.observe_max t.queue_hwm_g (float_of_int t.queue_hwm);
    Obs.Registry.Gauge.add t.run_wall_g (t.wall_clock () -. wall_start)
  end;
  outcome

let reset t =
  Event_queue.clear t.queue;
  t.clock := 0.0;
  t.executed <- 0;
  t.queue_hwm <- 0
