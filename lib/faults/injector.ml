module Rng = Mutil.Rng
module Network = Bgp.Network

type t = {
  network : Network.t;
  metrics : Obs.Registry.t;
  mutable handles : Sim.Engine.handle list;
  mutable injected : int;
  mutable stopped : bool;
}

let engine t = Network.engine t.network

let count t kind =
  t.injected <- t.injected + 1;
  Obs.Registry.Counter.incr
    (Obs.Registry.counter t.metrics ~labels:[ ("kind", kind) ]
       "faults_injected")

let count_skipped t =
  Obs.Registry.Counter.incr
    (Obs.Registry.counter t.metrics "fault_churn_skipped")

let schedule_at t ~time f =
  let handle = Sim.Engine.schedule_at_cancellable (engine t) ~time f in
  t.handles <- handle :: t.handles

let target_is_up t = function
  | Fault_plan.Link (a, b) -> Network.link_is_up t.network a b
  | Fault_plan.Router asn -> Network.router_is_up t.network asn

let take_down t = function
  | Fault_plan.Link (a, b) ->
    if Network.link_is_up t.network a b then begin
      Network.fail_link_now t.network a b;
      count t "link_down"
    end
  | Fault_plan.Router asn ->
    if Network.router_is_up t.network asn then begin
      Network.crash_router_now t.network asn;
      count t "router_crash"
    end

let bring_up t = function
  | Fault_plan.Link (a, b) ->
    if not (Network.link_is_up t.network a b) then begin
      Network.restore_link_now t.network a b;
      count t "link_up"
    end
  | Fault_plan.Router asn ->
    if not (Network.router_is_up t.network asn) then begin
      Network.restart_router_now t.network asn;
      count t "router_restart"
    end

let validate_target graph = function
  | Fault_plan.Link (a, b) ->
    if not (Topology.As_graph.mem_edge graph a b) then
      invalid_arg
        (Printf.sprintf "Injector.arm: %s does not exist"
           (Fault_plan.target_to_string (Fault_plan.Link (a, b))))
  | Fault_plan.Router asn ->
    if not (Topology.As_graph.mem_node graph asn) then
      invalid_arg
        (Printf.sprintf "Injector.arm: %s is not in the topology"
           (Fault_plan.target_to_string (Fault_plan.Router asn)))

let arm_spec t rng spec =
  match spec with
  | Fault_plan.Fail { target; at; duration } -> (
    schedule_at t ~time:at (fun _ -> take_down t target);
    match duration with
    | Some d -> schedule_at t ~time:(at +. d) (fun _ -> bring_up t target)
    | None -> ())
  | Fault_plan.Flap { target; start; period; down_for; until } ->
    let rec cycle time =
      if time <= until then begin
        schedule_at t ~time (fun _ -> take_down t target);
        schedule_at t ~time:(time +. down_for) (fun _ -> bring_up t target);
        cycle (time +. period)
      end
    in
    cycle start
  | Fault_plan.Churn { targets; start; rate; mean_downtime; until } ->
    (* the whole arrival sequence is drawn up front, so the schedule is a
       pure function of (plan, seed) regardless of what the simulation
       does in between *)
    let pool = Array.of_list targets in
    let rec arrivals time =
      let time = time +. Rng.exponential rng rate in
      if time > until then ()
      else begin
        let target = Rng.pick rng pool in
        let downtime = Rng.exponential rng (1.0 /. mean_downtime) in
        schedule_at t ~time (fun _ ->
            (* an arrival on a target some other fault already holds down
               is skipped: its recovery belongs to that fault *)
            if target_is_up t target then begin
              take_down t target;
              schedule_at t ~time:(time +. downtime) (fun _ ->
                  bring_up t target)
            end
            else count_skipped t);
        arrivals time
      end
    in
    arrivals start
  | Fault_plan.Impair { a; b; at; duration; impairment } -> (
    schedule_at t ~time:at (fun _ ->
        Network.impair_link t.network ~rng a b impairment;
        count t "impair_on");
    match duration with
    | Some d ->
      schedule_at t
        ~time:(at +. d)
        (fun _ ->
          Network.clear_link_impairment t.network a b;
          count t "impair_off")
    | None -> ())

let arm ?metrics ~rng network plan =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Sim.Engine.metrics (Network.engine network)
  in
  List.iter (validate_target (Network.graph network)) (Fault_plan.targets plan);
  let t = { network; metrics; handles = []; injected = 0; stopped = false } in
  (* one independent stream per spec, derived in plan order: reordering or
     extending a plan never perturbs the other specs' randomness *)
  List.iteri (fun i spec -> arm_spec t (Rng.split_at rng i) spec) plan;
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter Sim.Engine.cancel t.handles;
    t.handles <- []
  end

let injected t = t.injected
