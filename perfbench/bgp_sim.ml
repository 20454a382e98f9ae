(* bgp-sim: the paper's Section 5 experiment shape on a generated
   ~1,000-AS internet.  A pass sweeps attacker counts x deployment; each
   sweep point is one Exec.Pool.map over pre-split-seed runs.  A step is
   one sweep point (one map); an operation is one scenario run. *)

(* One domain: on a 2-core box, two domains ran the sweep only 1.0-1.4x
   faster and swung by +-25% from run to run, too wide for a regression
   bound. *)
let jobs = 1

type fixture = {
  internet : Topology.Generate.internet;
  root : Mutil.Rng.t;
  draws : int array array;  (** per point, per run: which draw converges *)
  reference : string array array;  (** per point, per run: jobs=1 outcome *)
  events : float;  (** engine events in one sweep (traced runs only) *)
}

(* Some draws make BGP oscillate until the engine's 10-million-event
   safety net; set-up skips them, giving up on a draw once its routers
   have sent this many updates.  Converging runs send 5,000 on average
   and at most ~13,000 over seeds 1-12; a larger budget only lets the
   doomed draw grow the heap further before it is dropped. *)
let update_budget = 25_000

exception Over_budget

let within_budget net =
  let sent = ref 0 in
  Bgp.Network.set_update_tap net
    (Some
       (fun ~time:_ ~src:_ ~dst:_ _ ->
         incr sent;
         if !sent > update_budget then raise Over_budget))

type task = {
  signature : string;
  start_ns : int64;
  stop_ns : int64;
  words : float;
  metrics : Obs.Registry.t;
}

(* One scenario, on whichever domain the pool hands it to: it builds its
   own scenario, registry and engine from its pre-split stream. *)
let run_task ?prepare ~counted (internet : Topology.Generate.internet)
    (n_attackers, deployment) rng =
  let w0 = Gc.minor_words () in
  let start_ns = Trace.now_ns () in
  let scenario =
    Attack.Scenario.random rng ~graph:internet.graph ~stub:internet.stub ~n_origins:1
      ~n_attackers ~deployment
  in
  let metrics = if counted then Obs.Registry.create () else Obs.Registry.noop in
  let outcome = Attack.Scenario.run ?prepare ~metrics rng scenario in
  let stop_ns = Trace.now_ns () in
  {
    signature = Oracle.signature outcome;
    start_ns;
    stop_ns;
    words = Gc.minor_words () -. w0;
    metrics;
  }

(* Traced only: the per-task registries' counts, summed over a sweep
   (the queue high-water mark is a maximum).  The counts depend on the
   scenarios alone, so set-up reads them and the timed sweeps run
   without registries. *)
let counts (tasks : task array) =
  let sum name =
    float_of_int
      (Array.fold_left (fun n t -> n + Obs.Registry.sum_counters t.metrics name) 0 tasks)
  in
  [
    ("sim.engine.events", sum "sim_events_executed");
    ("bgp.router.updates_sent", sum "bgp_updates_sent");
    ("bgp.router.decisions", sum "bgp_decisions");
    ("moas.detector.verify_calls", sum "moas_verify_calls");
    ("moas.detector.alarms", sum "moas_alarms");
    ( "sim.engine.queue_hwm",
      Array.fold_left
        (fun m t ->
          Float.max m
            (Obs.Registry.Gauge.value (Obs.Registry.gauge t.metrics "sim_queue_depth_hwm")))
        0. tasks );
  ]

(* One sweep: per point, the tasks the pool ran, plus step/op samples. *)
let sweep tr ~jobs fx =
  let steps = Pass.Samples.create () and ops = Pass.Samples.create () in
  let points =
    Array.mapi
      (fun p point ->
        let rngs =
          Array.init Inputs.runs (fun run ->
              Inputs.run_rng fx.root ~point:p ~run ~draw:fx.draws.(p).(run))
        in
        let t0 = Trace.now_ns () in
        let tasks =
          Trace.with_span tr ~req:p "exec.pool.map" (fun () ->
              let tasks =
                Exec.Pool.map ~jobs (run_task ~counted:false fx.internet point) rngs
              in
              Array.iter
                (fun t ->
                  Trace.add tr ~name:"attack.scenario.run" ~start_ns:t.start_ns
                    ~stop_ns:t.stop_ns ~words:t.words ())
                tasks;
              tasks)
        in
        let map_s = Trace.seconds_between t0 (Trace.now_ns ()) in
        Pass.Samples.push steps (1e3 *. map_s);
        let busy = ref 0. in
        Array.iter
          (fun t ->
            let s = Trace.seconds_between t.start_ns t.stop_ns in
            busy := !busy +. s;
            Pass.Samples.push ops (1e6 *. s);
            Trace.record tr "attack.scenario.run_ms" (1e3 *. s);
            Trace.record tr "attack.scenario.run.minor_words" t.words)
          tasks;
        Trace.record tr "exec.pool.map_ms" (1e3 *. map_s);
        Trace.record tr "exec.pool.busy_share" (!busy /. (float_of_int jobs *. map_s));
        tasks)
      Inputs.sweep_points
  in
  (points, Pass.Samples.contents steps, Pass.Samples.contents ops)

let signatures points = Array.map (Array.map (fun t -> t.signature)) points

(* Run [f] in a child process and return its result.  Set-up screens
   its draws there: a draw that oscillates grows the heap until the
   budget stops it, and the peak heap should measure the sweeps, not
   the draws set-up threw away. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (f ()) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = Marshal.from_channel ic in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "bgp-sim: screening process failed");
    v

(* Set-up: the internet, then for every run the first draw that
   converges within budget and its outcome at jobs=1 -- the reference
   every measured sweep must reproduce. *)
let setup tr ~seed =
  let internet =
    Trace.stage tr ~metric:"topology.generate_s" "topology.generate" (fun () ->
        Inputs.internet ())
  in
  let root = Inputs.sweep_root ~seed in
  let counted = Trace.enabled tr in
  let (draws : int array array), (reference : string array array), (counts : (string * float) list) =
    in_child (fun () ->
        let screened =
          Array.mapi
            (fun p point ->
              Array.init Inputs.runs (fun run ->
                  let rec first draw =
                    let rng = Inputs.run_rng root ~point:p ~run ~draw in
                    match run_task ~prepare:within_budget ~counted internet point rng with
                    | t -> (draw, t)
                    | exception Over_budget -> first (draw + 1)
                  in
                  first 0))
            Inputs.sweep_points
        in
        let tasks = Array.map (Array.map snd) screened in
        ( Array.map (Array.map fst) screened,
          signatures tasks,
          if counted then counts (Array.concat (Array.to_list tasks)) else [] ))
  in
  List.iter (fun (metric, v) -> Trace.record tr metric v) counts;
  {
    internet;
    root;
    draws;
    reference;
    events = Option.value ~default:0. (List.assoc_opt "sim.engine.events" counts);
  }

let pass tr fx =
  let (points, steps_ms, ops_us), work_s = Pass.time (fun () -> sweep tr ~jobs fx) in
  let checks = Pass.Checks.create () in
  Trace.with_span tr "perfbench.check" (fun () ->
      Array.iteri
        (fun p sigs ->
          Array.iteri
            (fun r s ->
              Pass.Checks.check checks "scenario outcome matches the jobs=1 reference"
                (String.equal s fx.reference.(p).(r)))
            sigs)
        (signatures points));
  Trace.record tr "sim.engine.events_per_s" (fx.events /. work_s);
  { Pass.work_s; steps_ms; ops_us; attempted = checks.attempted; failed = checks.failed }

let stamp fx =
  [
    ("ases", string_of_int (Topology.As_graph.node_count fx.internet.graph));
    ("links", string_of_int (Topology.As_graph.edge_count fx.internet.graph));
    ( "scenarios",
      string_of_int (Array.length Inputs.sweep_points * Inputs.runs) );
    ("sweep_points", string_of_int (Array.length Inputs.sweep_points));
  ]
