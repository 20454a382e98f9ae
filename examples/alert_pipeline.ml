(* The operational alert path on one screen: collectors peered with a
   plain BGP network record its updates, the live monitor turns them into
   episode alerts, and the serving daemon pushes each alert to a
   subscriber.  A hijack opens an episode, the MOAS-list check flags it,
   and the episode closes when the operator fixes the fault (the attacker
   withdraws).

   Run with: dune exec examples/alert_pipeline.exe *)

open Net
module Scenario = Collect.Scenario

let seconds ms = float_of_int ms /. 1000.

(* One batch per capture instant of the time-ordered merged stream: the
   monitor settles after each, the way the collector mesh validates every
   time step. *)
let batches (merged : Collect.Mesh.tagged array) =
  Array.fold_right
    (fun { Collect.Mesh.event = ev; _ } acc ->
      match acc with
      | (time, evs) :: rest when time = ev.Stream.Monitor.time ->
        (time, ev :: evs) :: rest
      | _ -> (ev.time, [ ev ]) :: acc)
    merged []
  |> List.map (fun (time, evs) ->
         { Stream.Source.time; day = None; events = Array.of_list evs })
  |> Array.of_list

let () =
  let topology = Topology.Paper_topologies.topology_46 () in
  Printf.printf "topology: %s\n" (Topology.Paper_topologies.describe topology);
  let design = Scenario.design topology in
  (* no router checks anything: detection happens at the collectors *)
  let network = Bgp.Network.make topology.Topology.Paper_topologies.graph in
  let vantages = Collect.Vantage.attach network design.Scenario.d_specs in
  Printf.printf "collectors: %s\n\n"
    (String.concat ", " (List.map Collect.Vantage.name vantages));

  Scenario.originate_arm Scenario.Baseline network design;
  let attacked = Scenario.attacked_prefix in
  Printf.printf "t=0     %s announces %s with MOAS list {%s}\n"
    (Asn.to_string design.Scenario.d_legit) (Prefix.to_string attacked)
    (Asn.to_string design.Scenario.d_legit);
  Printf.printf "t=%-5.0f %s falsely originates it, with no list\n"
    Scenario.attack_at (Asn.to_string design.Scenario.d_attacker);
  Printf.printf "t=60    the operator fixes the fault (withdrawal)\n\n";
  Bgp.Network.withdraw ~at:60.0 network design.Scenario.d_attacker attacked;
  ignore (Bgp.Network.run network);

  let merged, _ = Collect.Mesh.merge_streams (Collect.Vantage.streams vantages) in
  let feed = batches merged in
  let server =
    Serve.Server.create
      ~store:
        (Collect.Store.empty
           ~vantages:(List.map Collect.Vantage.name vantages))
      ()
  in
  let client = Serve.Client.connect server in
  ignore
    (Serve.Client.call client
       (Serve.Proto.Subscribe Collect.Query.(empty |> prefix attacked)));
  print_endline "alerts pushed to the subscriber:";
  let tailed =
    Serve.Server.tail server (Stream.Source.of_batches feed) ~on_batch:(fun _ ->
        List.iter
          (function
            | Serve.Proto.Alert { alert; _ } ->
              Printf.printf "  t=%-7.3f %s\n" (seconds alert.al_time)
                (match alert.al_kind with
                | Serve.Proto.Opened ->
                  "episode OPENED: origins "
                  ^ Moas.Moas_list.to_string alert.al_origins
                | Flagged -> "FLAGGED: the MOAS lists disagree"
                | Closed -> "CLOSED: back to one origin")
            | _ -> ())
          (Serve.Client.poll client))
  in
  Printf.printf "\n%d update batches tailed\n%s\n" tailed
    (Serve.Proto.render_response
       (Serve.Client.call client Serve.Proto.Stats));
  Serve.Client.close client
