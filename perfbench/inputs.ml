(* Everything a workload feeds the system, derived from the run's seed
   alone: the same seed gives the same inputs, byte for byte. *)

open Net
module Srv = Measurement.Synthetic_routeviews

let mix seed salt = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) salt)

(* The default synthetic RouteViews archive (16k events over 1,279 day
   batches) with its generator seeded from the run. *)
let archive_params ~seed = { Srv.default_params with Srv.seed = mix seed 0x524f555445L }

let vantages = 4
let coverage = 0.65
let vantage_seed ~seed = mix seed 0xC011EC7L

(* Replay policy: every origin vouches for its peers except the two
   fault ASes, so alerts fire exactly on the two fault days. *)
let annotate =
  Stream.Source.trusted_annotator
    ~distrusted:(Asn.Set.of_list [ Srv.fault_as_1998; Srv.fault_as_2001 ])
    ()

(* serve-live's query mix: five kinds, each step issues one of each in a
   seeded order with seeded parameters. *)
type kind = Exact | Covered | Origin | Visibility | Empty_count

let kinds = [| Exact; Covered; Origin; Visibility; Empty_count |]

let kind_name = function
  | Exact -> "exact"
  | Covered -> "covered"
  | Origin -> "origin"
  | Visibility -> "visibility"
  | Empty_count -> "count"

type call = { kind : kind; request : Serve.Proto.request }

let query_plan ~seed ~steps (entries : Collect.Correlator.entry array) =
  let rng = Mutil.Rng.create ~seed:(mix seed 0x5E12EL) in
  let n = Array.length entries in
  if n = 0 then invalid_arg "Inputs.query_plan: empty store";
  let some_entry () = entries.(Mutil.Rng.int rng n) in
  (* every visibility floor equally often, in seeded order: the floor
     sets the reply size, so a drawn mix would move the totals by seed *)
  let floors = Array.init steps (fun i -> 1 + (i mod vantages)) in
  Mutil.Rng.shuffle rng floors;
  let call step kind =
    let open Collect.Query in
    let request =
      match kind with
      | Exact -> Serve.Proto.Query (empty |> prefix (some_entry ()).x_prefix)
      | Covered ->
        Serve.Proto.Query (empty |> prefix (some_entry ()).x_prefix |> covered)
      | Origin ->
        Serve.Proto.Count
          (empty |> origin (Asn.Set.min_elt (some_entry ()).x_origins))
      | Visibility -> Serve.Proto.Query (empty |> min_visibility floors.(step))
      | Empty_count -> Serve.Proto.Count empty
    in
    { kind; request }
  in
  Array.init steps (fun step ->
      let order = Array.copy kinds in
      Mutil.Rng.shuffle rng order;
      Array.map (call step) order)

(* bgp-sim: one generated ~1,000-AS internet in the three-tier shape of
   the large-topology scaling suite (2% tier-1, 10% tier-2, the rest
   stubs).  The topology is part of the workload, like a dataset: the
   seed draws the scenarios run over it, so runs on different seeds
   measure the same system. *)
let internet_size = 1000

let internet () =
  let tier1 = internet_size / 50 and tier2 = internet_size / 10 in
  Topology.Generate.generate
    (Mutil.Rng.of_int (0x5CA1 + internet_size))
    {
      Topology.Generate.default_params with
      Topology.Generate.tier1_count = tier1;
      tier2_count = tier2;
      stub_count = internet_size - tier1 - tier2;
    }

(* The sweep: attacker counts x deployment, [runs] pre-split runs each. *)
let attacker_counts = [ 2; 5; 10; 20 ]
let deployments = [ Moas.Deployment.Full; Moas.Deployment.Fraction 0.5 ]
let runs = 10

let sweep_points =
  List.concat_map (fun a -> List.map (fun d -> (a, d)) deployments) attacker_counts
  |> Array.of_list

let sweep_root ~seed = Mutil.Rng.create ~seed:(mix seed 0xBEACL)

(* Run [r] of point [p] draws from its own pre-split stream; [draw]
   counts the redraws set-up made to skip scenarios that do not
   converge. *)
let run_rng root ~point ~run ~draw =
  let per_draw = Array.length sweep_points * runs in
  Mutil.Rng.split_at root ((draw * per_draw) + (point * runs) + run)
