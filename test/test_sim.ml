(* Tests for the discrete-event engine: Event_queue ordering and Engine
   scheduling semantics. *)

module Eq = Sim.Event_queue
module Engine = Sim.Engine

let test_queue_empty () =
  let q = Eq.create ~filler:0 () in
  Alcotest.(check bool) "fresh queue empty" true (Eq.is_empty q);
  Alcotest.(check (option (pair (float 0.0) int))) "pop empty" None (Eq.pop q);
  Alcotest.(check (option (float 0.0))) "peek empty" None (Eq.peek_time q)

let test_queue_orders_by_time () =
  let q = Eq.create ~filler:0 () in
  List.iter (fun t -> Eq.push q ~time:t (int_of_float t)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Eq.pop q with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending time" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_queue_fifo_ties () =
  let q = Eq.create ~filler:0 () in
  List.iter (fun v -> Eq.push q ~time:7.0 v) [ 1; 2; 3; 4 ];
  let rec drain acc =
    match Eq.pop q with
    | Some (_, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "insertion order preserved on ties" [ 1; 2; 3; 4 ]
    (drain [])

let test_queue_interleaved () =
  let q = Eq.create ~filler:"" () in
  Eq.push q ~time:2.0 "b";
  Eq.push q ~time:1.0 "a";
  Alcotest.(check (option (pair (float 0.0) string))) "first pop" (Some (1.0, "a")) (Eq.pop q);
  Eq.push q ~time:0.5 "c";
  Alcotest.(check (option (pair (float 0.0) string))) "new earlier event wins" (Some (0.5, "c"))
    (Eq.pop q);
  Alcotest.(check int) "one left" 1 (Eq.length q)

let test_queue_rejects_nan () =
  let q = Eq.create ~filler:() () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Eq.push q ~time:Float.nan ())

let test_queue_clear () =
  let q = Eq.create ~filler:() () in
  Eq.push q ~time:1.0 ();
  Eq.clear q;
  Alcotest.(check bool) "cleared" true (Eq.is_empty q)

let prop_queue_sorted =
  Testutil.qtest "pops are sorted for arbitrary pushes"
    QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 1000.0))
    (fun times ->
      let q = Eq.create ~filler:0.0 () in
      List.iter (fun t -> Eq.push q ~time:t t) times;
      let rec drain acc =
        match Eq.pop q with
        | Some (t, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* regression: ordering on equal timestamps is FIFO in insertion order,
   not merely "some stable permutation" — the heap's (time, seq) key must
   behave exactly like a stable sort of the insertion sequence. *)
let prop_queue_fifo_on_ties =
  Testutil.qtest "equal-time events pop in insertion order"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 5))
    (fun coarse_times ->
      let q = Eq.create ~filler:(0.0, 0) () in
      let tagged = List.mapi (fun i t -> (float_of_int t, i)) coarse_times in
      List.iter (fun (t, i) -> Eq.push q ~time:t (t, i)) tagged;
      let rec drain acc =
        match Eq.pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged
      in
      popped = expected)

(* Interleaved pushes and pops against a reference: the queue must hand
   out the least (time, insertion sequence) entry on every pop, through
   either pop or pop_min_into, with many equal times. *)
type queue_op = Push of int | Pop | Pop_min

let queue_op_gen =
  QCheck2.Gen.(
    frequency
      [ (5, map (fun t -> Push t) (int_range 0 4)); (2, pure Pop); (2, pure Pop_min) ])

(* the ops against a reference: per integer time, a FIFO of the
   pending sequence numbers, so the least (time, seq) entry is the head
   of the first non-empty FIFO *)
let matches_reference ops =
  let q = Eq.create ~filler:0 () in
  let pending = Array.init 5 (fun _ -> Queue.create ()) and seq = ref 0 and size = ref 0 in
  let rec take_reference_from t =
    if t = Array.length pending then None
    else if Queue.is_empty pending.(t) then take_reference_from (t + 1)
    else begin
      decr size;
      Some (float_of_int t, Queue.pop pending.(t))
    end
  in
  let take_reference () = take_reference_from 0 in
  List.for_all
    (fun op ->
      match op with
      | Push t ->
        Eq.push q ~time:(float_of_int t) !seq;
        Queue.push !seq pending.(t);
        incr seq;
        incr size;
        Eq.length q = !size
      | Pop -> Eq.pop q = take_reference ()
      | Pop_min -> (
        match take_reference () with
        | None -> Eq.is_empty q
        | Some (time, s) ->
          let head = ref Float.nan in
          let payload = Eq.pop_min_into q head in
          Float.equal !head time && payload = s))
    ops
  && Eq.length q = !size

let prop_queue_matches_reference =
  Testutil.qtest ~count:300 "interleaved push/pop follows the sorted (time, seq) reference"
    QCheck2.Gen.(list_size (int_range 0 300) queue_op_gen)
    matches_reference

(* the same across the queue's growth: 2,000 to 3,000 operations, eight
   in ten of them pushes, so the pending entries pass 256 and 1,024, all
   at five distinct times.  The operations are drawn from a generated
   seed, not shrunk: a broken queue fails nearly every seed, and
   shrinking would try them all. *)
let prop_queue_matches_reference_grown =
  Testutil.qtest ~count:40 "push/pop across growth past 1,024 pending follows the reference"
    QCheck2.Gen.(no_shrink (int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.init
        (2_000 + Random.State.int rng 1_001)
        (fun _ ->
          match Random.State.int rng 10 with
          | 0 -> Pop
          | 1 -> Pop_min
          | _ -> Push (Random.State.int rng 5))
      |> matches_reference)

let test_queue_empty_accessors () =
  let q = Eq.create ~filler:"" () in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let clock = ref 0.0 in
  Alcotest.(check bool) "min_time_exceeds on empty raises" true
    (raises (fun () -> Eq.min_time_exceeds q 0.0));
  Alcotest.(check bool) "pop_min_into on empty raises" true
    (raises (fun () -> Eq.pop_min_into q clock));
  Eq.push q ~time:2.0 "a";
  Eq.push q ~time:1.0 "b";
  Alcotest.(check (option (float 0.0))) "peek" (Some 1.0) (Eq.peek_time q);
  Alcotest.(check bool) "earliest within 1.0" false (Eq.min_time_exceeds q 1.0);
  Alcotest.(check bool) "earliest beyond 0.5" true (Eq.min_time_exceeds q 0.5);
  Alcotest.(check string) "pop_min_into" "b" (Eq.pop_min_into q clock);
  Alcotest.(check (float 0.0)) "its time" 1.0 !clock;
  Alcotest.(check (option (pair (float 0.0) string))) "pop" (Some (2.0, "a")) (Eq.pop q);
  Alcotest.(check (option (float 0.0))) "drained peek" None (Eq.peek_time q);
  Alcotest.(check (option (pair (float 0.0) string))) "drained pop" None (Eq.pop q);
  Alcotest.(check bool) "drained pop_min_into raises" true
    (raises (fun () -> Eq.pop_min_into q clock));
  Eq.clear q;
  Eq.push_after q clock ~delay:0.5 "c";
  Alcotest.(check string) "usable after clear" "c" (Eq.pop_min_into q clock);
  Alcotest.(check (float 0.0)) "pushed after the clock" 1.5 !clock

(* A popped payload is the caller's alone: neither the vacated slot nor
   the slots a growth added keep it reachable, so once dropped it is
   collected.  Both the last payload of a drained queue and one popped
   while others are pending are checked. *)
let test_queue_releases_popped () =
  let q = Eq.create ~filler:(Bytes.create 0) () in
  let clock = ref 0.0 in
  let weak = Weak.create 2 in
  let[@inline never] push_fresh i time =
    let payload = Bytes.make 16 'x' in
    Weak.set weak i (Some payload);
    Eq.push q ~time payload
  in
  push_fresh 0 1.0;
  push_fresh 1 2.0;
  for i = 3 to 40 do
    Eq.push q ~time:(float_of_int i) (Bytes.make 1 'y')
  done;
  ignore (Sys.opaque_identity (Eq.pop_min_into q clock));
  ignore (Sys.opaque_identity (Eq.pop_min_into q clock));
  Gc.full_major ();
  Alcotest.(check bool) "popped with others pending" false (Weak.check weak 0);
  Alcotest.(check bool) "second popped" false (Weak.check weak 1);
  while not (Eq.is_empty q) do
    ignore (Sys.opaque_identity (Eq.pop_min_into q clock))
  done;
  push_fresh 0 50.0;
  ignore (Sys.opaque_identity (Eq.pop_min_into q clock));
  Gc.full_major ();
  Alcotest.(check bool) "last payload of a drained queue" false (Weak.check weak 0);
  Alcotest.(check int) "queue still usable" 0 (Eq.length q)

(* A payload popped after the queue grew past 1,024 slots is not
   promoted by the next minor collection: a growth leaves no pointer to
   it in the arrays it discards, which the remembered set would keep
   scanning. *)
let test_queue_growth_promotes_nothing () =
  let q = Eq.create ~filler:[] () in
  let clock = ref 0.0 in
  Gc.minor ();
  let[@inline never] push_young () = Eq.push q ~time:0.0 (List.init 1000 Fun.id) in
  push_young ();
  for i = 1 to 1_100 do
    Eq.push q ~time:(float_of_int i) []
  done;
  while not (Eq.is_empty q) do
    ignore (Sys.opaque_identity (Eq.pop_min_into q clock))
  done;
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  if promoted > 100.0 then
    Alcotest.failf "a minor collection after the drain promoted %.0f words (3,000-word payload)"
      promoted

(* Cancelled events still occupy their queue slot: [run] counts every
   slot it reaches, and runs exactly the handlers left armed, in order. *)
let prop_engine_counts_cancelled =
  Testutil.qtest ~count:200 "executed counts cancelled slots; armed handlers run in order"
    QCheck2.Gen.(list_size (int_range 0 80) (pair (int_range 0 6) (int_range 0 2)))
    (fun events ->
      let engine = Engine.create () in
      let ran = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Engine.schedule_at_cancellable engine ~time:(float_of_int t) (fun _ ->
                ran := i :: !ran))
          events
      in
      (* kind 1: cancelled up front; kind 2: cancelled by an event at time
         3, scheduled last, so kind-2 events at times up to 3 still run *)
      List.iteri
        (fun i (_, kind) -> if kind = 1 then Engine.cancel (List.nth handles i))
        events;
      Engine.schedule_at engine ~time:3.0 (fun _ ->
          List.iteri
            (fun i (_, kind) -> if kind = 2 then Engine.cancel (List.nth handles i))
            events);
      let outcome = Engine.run engine in
      let expected =
        List.mapi (fun i (t, kind) -> (t, i, kind)) events
        |> List.filter (fun (t, _, kind) -> kind = 0 || (kind = 2 && t <= 3))
        |> List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
        |> List.map (fun (_, i, _) -> i)
      in
      outcome = Engine.Quiescent
      && Engine.events_executed engine = List.length events + 1
      && List.rev !ran = expected)

(* scale regression: 10k pushes with random (and heavily tied) times must
   drain in exactly (time, insertion-sequence) order — a stable sort of
   the insertion stream, even when the heap has grown and shrunk *)
let test_queue_10k_random () =
  let rng = Mutil.Rng.of_int 0x10c in
  let q = Eq.create ~filler:(0.0, 0) () in
  let n = 10_000 in
  let tagged =
    List.init n (fun i -> (float_of_int (Mutil.Rng.int rng 500), i))
  in
  List.iter (fun (t, i) -> Eq.push q ~time:t (t, i)) tagged;
  Alcotest.(check int) "all queued" n (Eq.length q);
  let rec drain acc =
    match Eq.pop q with
    | Some (_, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  let expected =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged
  in
  Alcotest.(check bool) "stable (time, seq) order over 10k events" true
    (drain [] = expected);
  Alcotest.(check bool) "drained" true (Eq.is_empty q)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:3.0 (fun e ->
      log := ("c", Engine.now e) :: !log);
  Engine.schedule engine ~delay:1.0 (fun e ->
      log := ("a", Engine.now e) :: !log;
      (* handlers can schedule further events *)
      Engine.schedule e ~delay:1.0 (fun e -> log := ("b", Engine.now e) :: !log));
  let outcome = Engine.run engine in
  Alcotest.(check bool) "quiescent" true (outcome = Engine.Quiescent);
  Alcotest.(check (list (pair string (float 1e-9)))) "order and clock"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log);
  Alcotest.(check int) "3 events executed" 3 (Engine.events_executed engine)

let test_engine_event_limit () =
  let engine = Engine.create () in
  (* a self-perpetuating event: the budget must stop it *)
  let rec tick e = Engine.schedule e ~delay:1.0 tick in
  Engine.schedule engine ~delay:1.0 tick;
  let outcome = Engine.run ~max_events:10 engine in
  Alcotest.(check bool) "limit reached" true (outcome = Engine.Event_limit_reached);
  Alcotest.(check int) "exactly budget" 10 (Engine.events_executed engine)

let test_engine_time_horizon () =
  let engine = Engine.create () in
  let ran = ref 0 in
  Engine.schedule engine ~delay:1.0 (fun _ -> incr ran);
  Engine.schedule engine ~delay:100.0 (fun _ -> incr ran);
  let outcome = Engine.run ~until:10.0 engine in
  Alcotest.(check bool) "horizon" true (outcome = Engine.Time_limit_reached);
  Alcotest.(check int) "only events within horizon ran" 1 !ran;
  Alcotest.(check int) "late event still queued" 1 (Engine.pending engine)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule engine ~delay:(-1.0) (fun _ -> ()));
  Engine.schedule engine ~delay:5.0 (fun _ -> ());
  ignore (Engine.run engine);
  Alcotest.check_raises "absolute time in the past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at engine ~time:1.0 (fun _ -> ()))

let test_engine_reset () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:1.0 (fun _ -> ());
  ignore (Engine.run engine);
  Engine.reset engine;
  Alcotest.(check (float 0.0)) "clock rewound" 0.0 (Engine.now engine);
  Alcotest.(check int) "no pending" 0 (Engine.pending engine);
  Alcotest.(check int) "counter reset" 0 (Engine.events_executed engine)

(* regression: reset must restore a FULLY fresh engine even when events
   are still pending, including the queue high-water mark, and the engine
   must be reusable afterwards (scheduling at times "before" the old
   clock). *)
let test_engine_reset_discards_pending () =
  let engine = Engine.create () in
  let ran = ref 0 in
  Engine.schedule engine ~delay:1.0 (fun _ -> incr ran);
  Engine.schedule engine ~delay:100.0 (fun _ -> incr ran);
  ignore (Engine.run ~until:10.0 engine);
  Alcotest.(check int) "one pending before reset" 1 (Engine.pending engine);
  Engine.reset engine;
  Alcotest.(check (float 0.0)) "clock rewound" 0.0 (Engine.now engine);
  Alcotest.(check int) "pending event dropped" 0 (Engine.pending engine);
  Alcotest.(check int) "executed counter reset" 0 (Engine.events_executed engine);
  Alcotest.(check int) "queue high-water reset" 0 (Engine.queue_high_water engine);
  (* the rewound clock really is fresh: t=0.5 was "the past" before reset *)
  Engine.schedule_at engine ~time:0.5 (fun _ -> incr ran);
  let outcome = Engine.run engine in
  Alcotest.(check bool) "reused engine quiesces" true (outcome = Engine.Quiescent);
  Alcotest.(check int) "only the new event ran" 2 !ran;
  Alcotest.(check int) "counter counts only the new run" 1
    (Engine.events_executed engine)

let test_engine_cancel_before_fire () =
  let engine = Engine.create () in
  let ran = ref 0 in
  let handle = Engine.schedule_cancellable engine ~delay:1.0 (fun _ -> incr ran) in
  Engine.schedule engine ~delay:2.0 (fun _ -> incr ran);
  Alcotest.(check bool) "not cancelled yet" false (Engine.is_cancelled handle);
  Engine.cancel handle;
  Alcotest.(check bool) "marked cancelled" true (Engine.is_cancelled handle);
  let outcome = Engine.run engine in
  Alcotest.(check bool) "quiescent" true (outcome = Engine.Quiescent);
  Alcotest.(check int) "only the live event ran" 1 !ran;
  (* the cancelled slot is still drained through the queue *)
  Alcotest.(check int) "slot counted" 2 (Engine.events_executed engine)

let test_engine_cancel_from_handler () =
  (* an earlier event retracts a later one mid-run — the injector's stop *)
  let engine = Engine.create () in
  let ran = ref 0 in
  let handle =
    Engine.schedule_at_cancellable engine ~time:5.0 (fun _ -> incr ran)
  in
  Engine.schedule_at engine ~time:1.0 (fun _ -> Engine.cancel handle);
  ignore (Engine.run engine);
  Alcotest.(check int) "retracted event never ran" 0 !ran

let test_engine_cancel_after_fire_is_inert () =
  let engine = Engine.create () in
  let ran = ref 0 in
  let handle = Engine.schedule_cancellable engine ~delay:1.0 (fun _ -> incr ran) in
  ignore (Engine.run engine);
  Alcotest.(check int) "event ran" 1 !ran;
  (* cancelling after the fact (or twice) is a safe no-op *)
  Engine.cancel handle;
  Engine.cancel handle;
  Alcotest.(check bool) "reports cancelled" true (Engine.is_cancelled handle);
  Engine.reset engine;
  Engine.cancel handle;
  Engine.schedule engine ~delay:1.0 (fun _ -> incr ran);
  ignore (Engine.run engine);
  Alcotest.(check int) "fresh events unaffected" 2 !ran

let () =
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "empty" `Quick test_queue_empty;
          Alcotest.test_case "time order" `Quick test_queue_orders_by_time;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "interleaved push/pop" `Quick test_queue_interleaved;
          Alcotest.test_case "NaN rejected" `Quick test_queue_rejects_nan;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          Alcotest.test_case "10k random pushes" `Quick test_queue_10k_random;
          Alcotest.test_case "popped payload is collectable" `Quick
            test_queue_releases_popped;
          Alcotest.test_case "grown queue promotes no popped payload" `Quick
            test_queue_growth_promotes_nothing;
          Alcotest.test_case "empty and drained accessors" `Quick
            test_queue_empty_accessors;
        ] );
      ( "engine",
        [
          Alcotest.test_case "in-order execution" `Quick test_engine_runs_in_order;
          Alcotest.test_case "event limit" `Quick test_engine_event_limit;
          Alcotest.test_case "time horizon" `Quick test_engine_time_horizon;
          Alcotest.test_case "past scheduling rejected" `Quick test_engine_rejects_past;
          Alcotest.test_case "reset" `Quick test_engine_reset;
          Alcotest.test_case "reset discards pending state" `Quick
            test_engine_reset_discards_pending;
          Alcotest.test_case "cancel before fire" `Quick
            test_engine_cancel_before_fire;
          Alcotest.test_case "cancel from a handler" `Quick
            test_engine_cancel_from_handler;
          Alcotest.test_case "cancel after fire is inert" `Quick
            test_engine_cancel_after_fire_is_inert;
        ] );
      ( "properties",
        [
          prop_queue_sorted;
          prop_queue_fifo_on_ties;
          prop_queue_matches_reference;
          prop_queue_matches_reference_grown;
          prop_engine_counts_cancelled;
        ] );
    ]
