open Net
module Rng = Mutil.Rng
module Stats = Mutil.Stats
module Topo = Topology.Paper_topologies
module Sm = Stream.Monitor

type point = {
  feed_count : int;
  detection_rate : float;
  mean_conflicts : float;
}

let victim = Prefix.of_string "192.0.2.0/24"

(* one attacked plain-BGP run; returns the converged network *)
let attacked_network rng (topology : Topo.t) =
  let graph = topology.Topo.graph in
  let stubs = Array.of_list (Asn.Set.elements topology.Topo.stub) in
  let origin = Rng.pick (Rng.split_at rng 0) stubs in
  let pool =
    Asn.Set.elements (Asn.Set.remove origin (Topology.As_graph.nodes graph))
    |> Array.of_list
  in
  let attacker = Rng.pick (Rng.split_at rng 1) pool in
  let network = Bgp.Network.make graph in
  Bgp.Network.originate ~at:0.0
    ~communities:(Moas.Moas_list.encode (Asn.Set.singleton origin))
    network origin victim;
  Bgp.Network.originate ~at:50.0
    ~communities:
      (Moas.Moas_list.encode (Asn.Set.of_list [ Asn.to_int origin; Asn.to_int attacker ]))
    network attacker victim;
  ignore (Bgp.Network.run network);
  network

let table_of network asn =
  List.map snd
    (Bgp.Rib.best_bindings (Bgp.Router.rib (Bgp.Network.router network asn)))

let study ?(seed = 0x56414e54L) ?(runs = 12)
    ?(feed_counts = [ 1; 2; 4; 8; 16 ]) ~topology () =
  let root = Rng.create ~seed in
  let graph = topology.Topo.graph in
  let all_ases = Array.of_list (Asn.Set.elements (Topology.As_graph.nodes graph)) in
  (* the same attacked networks are observed at every feed count *)
  let networks =
    List.init runs (fun i -> attacked_network (Rng.split_at root i) topology)
  in
  List.map
    (fun feed_count ->
      let caught = ref 0 in
      let conflicts = ref [] in
      List.iteri
        (fun run network ->
          let feeds =
            Rng.sample
              (Rng.split_at root (5000 + (run * 100) + feed_count))
              all_ases
              (min feed_count (Array.length all_ases))
          in
          let monitor = Sm.create Sm.default_config in
          Array.iter
            (fun feed ->
              Array.iter (Sm.ingest monitor)
                (Stream.Source.of_table ~time:100 ~peer:feed
                   (table_of network feed)))
            feeds;
          Sm.settle monitor ~time:100;
          let found =
            List.length (Stream.Report.flagged_open (Sm.snapshot monitor))
          in
          if found > 0 then begin
            incr caught;
            conflicts := float_of_int found :: !conflicts
          end)
        networks;
      {
        feed_count;
        detection_rate = float_of_int !caught /. float_of_int runs;
        mean_conflicts = Stats.mean !conflicts;
      })
    feed_counts

let render points =
  Mutil.Text_table.render
    ~header:[ "monitor feeds"; "detection rate"; "conflicts per catch" ]
    (List.map
       (fun p ->
         [
           string_of_int p.feed_count;
           Mutil.Text_table.percent_cell ~decimals:0 p.detection_rate;
           Printf.sprintf "%.1f" p.mean_conflicts;
         ])
       points)
