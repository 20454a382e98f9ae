(* The off-line deployment path of Section 4.2: no router modification at
   all.  A monitoring process periodically downloads the routing tables of
   several peers (here: the Loc-RIBs of a few vantage routers in the
   simulation), replays them into the stream monitor and checks MOAS list
   consistency across them.

   Run with: dune exec examples/offline_monitor.exe *)

open Net
module Rng = Mutil.Rng
module Sm = Stream.Monitor

let prefix = Prefix.of_string "192.0.2.0/24"

let table_of network asn =
  List.map snd
    (Bgp.Rib.best_bindings (Bgp.Router.rib (Bgp.Network.router network asn)))

let () =
  let topology = Topology.Paper_topologies.topology_46 () in
  let graph = topology.Topology.Paper_topologies.graph in
  let rng = Rng.of_int 11 in
  let stubs =
    Array.of_list (Asn.Set.elements topology.Topology.Paper_topologies.stub)
  in
  let origin1 = Rng.pick rng stubs in
  let origin2 =
    let rec draw () =
      let c = Rng.pick rng stubs in
      if Asn.equal c origin1 then draw () else c
    in
    draw ()
  in
  let attacker =
    Rng.pick rng
      (Array.of_list
         (Asn.Set.elements
            (Asn.Set.diff (Topology.As_graph.nodes graph)
               (Asn.Set.of_list [ origin1; origin2 ]))))
  in
  (* plain BGP network: NO router checks anything *)
  let network = Bgp.Network.make graph in
  let moas_list = Asn.Set.of_list [ origin1; origin2 ] in
  let communities = Moas.Moas_list.encode moas_list in
  Bgp.Network.originate ~at:0.0 ~communities network origin1 prefix;
  Bgp.Network.originate ~at:0.0 ~communities network origin2 prefix;
  ignore (Bgp.Network.run network);

  (* the monitor polls every transit AS, the way the Oregon collector
     peered with a few dozen ISPs: breadth is what exposes conflicts that
     stay invisible from any single vantage *)
  let feeds = Asn.Set.elements topology.Topology.Paper_topologies.transit in
  Printf.printf "monitor feeds: %d transit ASes\n" (List.length feeds);
  let monitor = Sm.create Sm.default_config in
  (* one poll: every feed's table, then the MOAS-list check *)
  let poll time =
    List.iter
      (fun feed ->
        Array.iter (Sm.ingest monitor)
          (Stream.Source.of_table ~time ~peer:feed (table_of network feed)))
      feeds;
    Sm.settle monitor ~time;
    Stream.Report.flagged_open (Sm.snapshot monitor)
  in
  Printf.printf "after benign convergence: %d conflicts (valid MOAS is consistent)\n"
    (List.length (poll 100));

  (* now the fault: a false origination appears, still nobody on-path checks *)
  Bgp.Network.originate ~at:200.0 network attacker prefix;
  ignore (Bgp.Network.run network);
  let conflicts = poll 300 in
  Printf.printf "after the bogus origination by %s: %d conflict(s)\n"
    (Asn.to_string attacker) (List.length conflicts);
  List.iter
    (fun p ->
      Printf.printf "  conflict on %s: %s\n"
        (Prefix.to_string p.Sm.p_prefix)
        (String.concat ", "
           (List.map
              (fun { Sm.origin; adv_list } ->
                Printf.sprintf "%s lists %s" (Asn.to_string origin)
                  (match adv_list with
                  | Some l -> Moas.Moas_list.to_string l
                  | None -> "nothing"))
              p.Sm.p_origins)))
    conflicts;
  print_endline
    "-> the conflict is visible to a passive monitor with table access only:\n\
    \   the mechanism deploys without any BGP implementation change"
