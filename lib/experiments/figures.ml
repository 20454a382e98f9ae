module Plot = Mutil.Ascii_plot
module Table = Mutil.Text_table
module Topo = Topology.Paper_topologies

type figure = {
  id : string;
  title : string;
  x_label : string;
  y_label : string;
  series : Plot.series list;
  notes : string list;
}

let percent x = 100.0 *. x

let series_of_points ~label points =
  {
    Plot.label;
    points =
      List.map
        (fun (p : Sweep.point) ->
          (percent p.Sweep.attacker_fraction, percent p.Sweep.mean_adopting))
        points;
  }

let sweep_series ?seed ?jobs ~topology ~n_origins ~deployment ~label () =
  let cfg = Sweep.config ?seed ~topology ~n_origins ~deployment () in
  series_of_points ~label
    (Sweep.run ?jobs cfg
       ~n_attackers_list:(Sweep.default_attacker_counts topology))

let default_axes =
  ( "Percent of attacker ASes",
    "Percent of remaining ASes adopting a false route" )

let figure9 ?seed ?jobs () =
  let topology = Topo.topology_46 () in
  let make ~origins ~id =
    let normal =
      sweep_series ?seed ?jobs ~topology ~n_origins:origins
        ~deployment:Moas.Deployment.Disabled ~label:"Normal BGP" ()
    in
    let full =
      sweep_series ?seed ?jobs ~topology ~n_origins:origins
        ~deployment:Moas.Deployment.Full ~label:"Full MOAS Detection" ()
    in
    let x_label, y_label = default_axes in
    {
      id;
      title =
        Printf.sprintf
          "Spoof-resilience in the 46-AS topology (%d origin AS%s)" origins
          (if origins > 1 then "es" else "");
      x_label;
      y_label;
      series = [ normal; full ];
      notes =
        [
          "Paper: >36% adoption at ~4% attackers without validation, 0.15% with";
          "Paper: 51% vs 9.8% at 30% attackers";
        ];
    }
  in
  [ make ~origins:1 ~id:"Figure 9(a)"; make ~origins:2 ~id:"Figure 9(b)" ]

let figure10 ?seed ?jobs () =
  let topologies = [ Topo.topology_25 (); Topo.topology_46 (); Topo.topology_63 () ] in
  let make ~origins ~id =
    let series =
      List.concat_map
        (fun topology ->
          let name = topology.Topo.name in
          let normal =
            sweep_series ?seed ?jobs ~topology ~n_origins:origins
              ~deployment:Moas.Deployment.Disabled
              ~label:(name ^ " Normal BGP") ()
          in
          let full =
            sweep_series ?seed ?jobs ~topology ~n_origins:origins
              ~deployment:Moas.Deployment.Full
              ~label:(name ^ " Full MOAS Detection") ()
          in
          [ normal; full ])
        topologies
    in
    let x_label, y_label = default_axes in
    {
      id;
      title =
        Printf.sprintf "Topology-size comparison (%d origin AS%s)" origins
          (if origins > 1 then "es" else "");
      x_label;
      y_label;
      series;
      notes =
        [
          "Paper: Normal BGP curves are similar across sizes";
          "Paper: with MOAS detection the 63-AS topology is markedly more robust";
        ];
    }
  in
  [ make ~origins:1 ~id:"Figure 10(a)"; make ~origins:2 ~id:"Figure 10(b)" ]

let figure11 ?seed ?jobs () =
  let make ~topology ~id =
    let deployments =
      [
        (Moas.Deployment.Disabled, "Normal BGP");
        (Moas.Deployment.Fraction 0.5, "Half MOAS Detection");
        (Moas.Deployment.Full, "Full MOAS Detection");
      ]
    in
    let series =
      List.map
        (fun (deployment, label) ->
          sweep_series ?seed ?jobs ~topology ~n_origins:1 ~deployment ~label
            ())
        deployments
    in
    let x_label, y_label = default_axes in
    {
      id;
      title =
        Printf.sprintf "Partial vs complete deployment (%s topology)"
          topology.Topo.name;
      x_label;
      y_label;
      series;
      notes =
        [
          "Paper: half deployment still blocks most false-route adoption";
          "Paper: 63-AS partial deployment cuts adoption by >63% at 30% attackers";
        ];
    }
  in
  [
    make ~topology:(Topo.topology_46 ()) ~id:"Figure 11(a)";
    make ~topology:(Topo.topology_63 ()) ~id:"Figure 11(b)";
  ]

let render figure =
  let plot =
    Plot.plot ~height:18 ~title:(figure.id ^ ": " ^ figure.title)
      ~x_label:figure.x_label ~y_label:figure.y_label figure.series
  in
  let xs =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst s.Plot.points) figure.series)
  in
  let header = "% attackers" :: List.map (fun s -> s.Plot.label) figure.series in
  let rows =
    List.map
      (fun x ->
        Printf.sprintf "%.1f" x
        :: List.map
             (fun s ->
               match List.assoc_opt x s.Plot.points with
               | Some y -> Printf.sprintf "%.2f" y
               | None -> "-")
             figure.series)
      xs
  in
  let notes =
    String.concat "" (List.map (fun n -> "  note: " ^ n ^ "\n") figure.notes)
  in
  plot ^ Table.render ~header rows ^ notes

let to_csv figure =
  let header =
    "attacker_percent" :: List.map (fun s -> s.Plot.label) figure.series
  in
  let xs =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst s.Plot.points) figure.series)
  in
  let rows =
    List.map
      (fun x ->
        Printf.sprintf "%.4f" x
        :: List.map
             (fun s ->
               match List.assoc_opt x s.Plot.points with
               | Some y -> Printf.sprintf "%.4f" y
               | None -> "")
             figure.series)
      xs
  in
  (header, rows)

(* ------------------------------------------------------------------ *)
(* Headline statistics *)

let point_at ?seed ?jobs ~topology ~n_origins ~deployment ~fraction () =
  let n = Topology.As_graph.node_count topology.Topo.graph in
  let n_attackers =
    max 1 (int_of_float (Float.round (fraction *. float_of_int n)))
  in
  let cfg = Sweep.config ?seed ~topology ~n_origins ~deployment () in
  Sweep.run_point ?jobs cfg ~n_attackers

let summary_table ?seed ?jobs () =
  let t25 = Topo.topology_25 ()
  and t46 = Topo.topology_46 ()
  and t63 = Topo.topology_63 () in
  let pct p = Table.percent_cell ~decimals:2 p.Sweep.mean_adopting in
  let normal = Moas.Deployment.Disabled
  and full = Moas.Deployment.Full
  and half = Moas.Deployment.Fraction 0.5 in
  let p46_4_normal = point_at ?seed ?jobs ~topology:t46 ~n_origins:1 ~deployment:normal ~fraction:0.04 () in
  let p46_4_full = point_at ?seed ?jobs ~topology:t46 ~n_origins:1 ~deployment:full ~fraction:0.04 () in
  let p46_30_normal = point_at ?seed ?jobs ~topology:t46 ~n_origins:1 ~deployment:normal ~fraction:0.30 () in
  let p46_30_full = point_at ?seed ?jobs ~topology:t46 ~n_origins:1 ~deployment:full ~fraction:0.30 () in
  let p63_16_full = point_at ?seed ?jobs ~topology:t63 ~n_origins:1 ~deployment:full ~fraction:0.16 () in
  let p63_35_full = point_at ?seed ?jobs ~topology:t63 ~n_origins:1 ~deployment:full ~fraction:0.35 () in
  let p25_35_full = point_at ?seed ?jobs ~topology:t25 ~n_origins:1 ~deployment:full ~fraction:0.35 () in
  let p63_30_normal = point_at ?seed ?jobs ~topology:t63 ~n_origins:1 ~deployment:normal ~fraction:0.30 () in
  let p63_30_half = point_at ?seed ?jobs ~topology:t63 ~n_origins:1 ~deployment:half ~fraction:0.30 () in
  let reduction =
    if p63_30_normal.Sweep.mean_adopting <= 0.0 then 0.0
    else
      1.0
      -. (p63_30_half.Sweep.mean_adopting /. p63_30_normal.Sweep.mean_adopting)
  in
  let rows =
    [
      [ "46-AS, ~4% attackers, Normal BGP"; ">36%"; pct p46_4_normal ];
      [ "46-AS, ~4% attackers, Full MOAS"; "0.15%"; pct p46_4_full ];
      [ "46-AS, 30% attackers, Normal BGP"; "51%"; pct p46_30_normal ];
      [ "46-AS, 30% attackers, Full MOAS"; "9.8%"; pct p46_30_full ];
      [ "63-AS, ~16% attackers, Full MOAS"; "2.1%"; pct p63_16_full ];
      [ "63-AS, ~35% attackers, Full MOAS"; "7.8%"; pct p63_35_full ];
      [ "25-AS, ~35% attackers, Full MOAS"; "31.2%"; pct p25_35_full ];
      [
        "63-AS, 30% attackers: adoption cut by half deployment";
        ">63%";
        Table.percent_cell ~decimals:1 reduction;
      ];
    ]
  in
  Table.render
    ~header:[ "Statistic (mean of 15 runs)"; "paper"; "measured" ]
    rows
