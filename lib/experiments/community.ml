open Net
module Rng = Mutil.Rng
module Stats = Mutil.Stats
module Topo = Topology.Paper_topologies
module Scenario = Collect.Scenario
module Watch = Moas.Community_watch
module Cpolicy = Bgp.Community_policy

let default_seed = 0xC0DDEC5L

(* the watch baselines itself on the converged pre-attack network: after
   the second home (t=5) settles, before the partition (t=20), the flap
   cadence (from t=10, but flaps only move known origins) and the attack
   (t=30) *)
let warmup_until = 15.0

let detectors = [ "community"; "moas-list"; "moas-alarm"; "irr"; "s-bgp" ]

type scores = {
  sc_arm : Scenario.arm option;  (** [None] aggregates every arm *)
  sc_detector : string;
  sc_confusion : Stats.confusion;
}

type result = {
  r_runs : int;
  r_smoke : bool;
  r_seed : int64;
  r_scores : scores list;
  r_reasons : (Watch.reason * int) list;
  r_class_tally : (Cpolicy.usage_class * int) list;
  r_events : int;
  r_scrubbed_values : int;
}

(* ------------------------------------------------------------------ *)
(* One run of the grid                                                 *)

type run_spec = {
  rs_index : int;
  rs_arm : Scenario.arm;
  rs_topology : Topo.t;
  rs_seed : int64;
}

let grid ~smoke ~seed =
  (* memoised topologies forced before the pool fans out *)
  let topologies = if smoke then [ Topo.topology_25 () ] else Topo.all () in
  let replicates = if smoke then 2 else 3 in
  let root = Rng.create ~seed in
  let specs =
    List.concat_map
      (fun arm ->
        List.concat_map
          (fun topo -> List.init replicates (fun _ -> (arm, topo)))
          topologies)
      Scenario.all_arms
  in
  List.mapi
    (fun i (arm, topo) ->
      {
        rs_index = i;
        rs_arm = arm;
        rs_topology = topo;
        (* pre-split by index: stable no matter the job count *)
        rs_seed = Rng.bits64 (Rng.split_at root i);
      })
    specs

(* explicit-list evidence pooled across every monitor of a run: origins
   ever observed and every distinct explicit MOAS list — the cross-vantage
   union that is the paper's own multi-collector argument *)
type evidence = {
  mutable e_origins : Asn.Set.t;
  mutable e_lists : Asn.Set.t list;  (* sorted distinct *)
}

type verdicts = (string * bool) list  (* per detector, flagged or not *)

type run_result = {
  rr_cases : (Scenario.arm * bool * verdicts) list;
      (* one per scored prefix: (arm, truth, per-detector verdicts) *)
  rr_reasons : (Watch.reason * int) list;
  rr_class_tally : (Cpolicy.usage_class * int) list;
  rr_events : int;
  rr_metrics : Obs.Registry.t;
}

let feeds_of specs =
  List.fold_left
    (fun acc s -> Asn.Set.union acc s.Collect.Vantage.v_peers)
    Asn.Set.empty specs

let run_one spec =
  let arm = spec.rs_arm in
  let topo = spec.rs_topology in
  let metrics = Obs.Registry.create () in
  let d = Scenario.design topo in
  let scrubbers =
    if arm = Scenario.Scrubbed then d.Scenario.d_scrubbers else Asn.Set.empty
  in
  (* monitors: the collector-grade feed ASes, minus any AS that scrubs —
     an operator who deliberately discards community telemetry is not
     running a community-telemetry detector *)
  let feeds = feeds_of d.Scenario.d_specs in
  let monitors =
    let m = Asn.Set.diff feeds scrubbers in
    if Asn.Set.is_empty m then feeds else m
  in
  (* every arm runs the full usage model so community dynamics exist to
     observe; the scrubbed arm additionally forces the victim's neighbors
     to the scrubbing class *)
  let model =
    let base =
      Cpolicy.make ~seed:spec.rs_seed ~transit:topo.Topo.transit
        topo.Topo.graph
    in
    if arm = Scenario.Scrubbed then
      Cpolicy.force_class base scrubbers Cpolicy.Scrub
    else base
  in
  let evidence : (Prefix.t, evidence) Hashtbl.t = Hashtbl.create 8 in
  let evidence_for prefix =
    match Hashtbl.find_opt evidence prefix with
    | Some e -> e
    | None ->
      let e = { e_origins = Asn.Set.empty; e_lists = [] } in
      Hashtbl.add evidence prefix e;
      e
  in
  let watches = ref [] in
  let community_dets = ref [] in
  let moas_dets = ref [] in
  let validator_of asn =
    if not (Asn.Set.mem asn monitors) then None
    else begin
      let watch = Watch.create ~warmup_until ~metrics ~self:asn () in
      let community_det =
        Moas.Detector.create
          ~backend:(Moas.Detector.Community watch)
          ~check_self_consistency:false ~metrics ~self:asn ()
      in
      let moas_det =
        Moas.Detector.create ~backend:Moas.Detector.Detect_only ~metrics
          ~self:asn ()
      in
      watches := watch :: !watches;
      community_dets := community_det :: !community_dets;
      moas_dets := moas_det :: !moas_dets;
      let community_v = Moas.Detector.validator community_det in
      let moas_v = Moas.Detector.validator moas_det in
      Some
        (Bgp.Router.scan_only @@ fun ~now ~prefix routes ->
          let e = evidence_for prefix in
          List.iter
            (fun r ->
              e.e_origins <-
                Asn.Set.add (Bgp.Route.origin_as ~self:asn r) e.e_origins;
              match Moas.Moas_list.decode r.Bgp.Route.communities with
              | None -> ()
              | Some list ->
                if
                  not (List.exists (Asn.Set.equal list) e.e_lists)
                then
                  e.e_lists <-
                    List.sort Asn.Set.compare (list :: e.e_lists))
            routes;
          let routes = Bgp.Router.filter moas_v ~now ~prefix routes in
          Bgp.Router.filter community_v ~now ~prefix routes)
    end
  in
  let config =
    Bgp.Network.Config.(
      default
      |> with_metrics metrics
      |> with_policy_of (Cpolicy.policy ~metrics model)
      |> with_validator_of validator_of)
  in
  let network = Bgp.Network.make ~config topo.Topo.graph in
  Scenario.originate_arm arm network d;
  let plan = Scenario.fault_plan arm topo d in
  if plan <> Faults.Fault_plan.empty then
    ignore
      (Faults.Injector.arm ~metrics
         ~rng:(Rng.create ~seed:spec.rs_seed)
         network plan);
  ignore (Bgp.Network.run network);
  (* ---- judge every detector on the three scored prefixes ---- *)
  let alarmed dets prefix =
    List.exists
      (fun det ->
        List.exists
          (fun a -> Prefix.equal a.Moas.Alarm.prefix prefix)
          (Moas.Detector.alarms det))
      dets
  in
  let registered_irr prefix =
    (* a stale registry: the second home's record is missing — recent
       multihoming that never made it into the IRR, the classic staleness
       failure of whois-grade databases *)
    if Prefix.equal prefix Scenario.attacked_prefix then
      Asn.Set.singleton d.Scenario.d_legit
    else if Prefix.equal prefix Scenario.multihomed_prefix then
      Asn.Set.singleton d.Scenario.d_home_a
    else Asn.Set.singleton d.Scenario.d_quiet
  in
  let authorized_sbgp prefix =
    (* address attestations as S-BGP would carry them: exactly the truth *)
    if Prefix.equal prefix Scenario.attacked_prefix then
      Asn.Set.singleton d.Scenario.d_legit
    else if Prefix.equal prefix Scenario.multihomed_prefix then
      Asn.Set.of_list [ d.Scenario.d_home_a; d.Scenario.d_home_b ]
    else Asn.Set.singleton d.Scenario.d_quiet
  in
  let verdicts_for prefix : verdicts =
    let e = evidence_for prefix in
    let moas_list_flags =
      (* evidence-grade list check: flags only on explicit lists — either
         two observed lists disagree, or an observed origin falls outside
         the advertised list.  With every list scrubbed away there is no
         evidence and the check is blind (Section 4.3). *)
      match e.e_lists with
      | [] -> false
      | [ l ] -> not (Asn.Set.subset e.e_origins l)
      | _ :: _ :: _ -> true
    in
    let outside authorized =
      not (Asn.Set.subset e.e_origins (authorized prefix))
    in
    [
      ("community", alarmed !community_dets prefix);
      ("moas-list", moas_list_flags);
      ("moas-alarm", alarmed !moas_dets prefix);
      ("irr", outside registered_irr);
      ("s-bgp", outside authorized_sbgp);
    ]
  in
  let cases =
    [
      (arm, arm <> Scenario.Fault_churn, verdicts_for Scenario.attacked_prefix);
      (arm, false, verdicts_for Scenario.multihomed_prefix);
      (arm, false, verdicts_for Scenario.quiet_prefix);
    ]
  in
  let reasons =
    List.fold_left
      (fun acc w ->
        List.map2
          (fun (r, n) (r', n') ->
            assert (r = r');
            (r, n + n'))
          acc (Watch.reason_counts w))
      (List.map (fun r -> (r, 0)) Watch.all_reasons)
      !watches
  in
  let events =
    List.fold_left (fun n w -> n + Watch.event_count w) 0 !watches
  in
  {
    rr_cases = cases;
    rr_reasons = reasons;
    rr_class_tally = Cpolicy.tally model;
    rr_events = events;
    rr_metrics = metrics;
  }

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)

let evaluate ?(metrics = Obs.Registry.noop) ?(seed = default_seed)
    ?(smoke = false) ?jobs () =
  let specs = Array.of_list (grid ~smoke ~seed) in
  let results = Exec.Pool.map ?jobs run_one specs in
  (* merge in run order, so reports are identical at any job count *)
  Array.iter
    (fun rr -> Obs.Registry.merge ~into:metrics rr.rr_metrics)
    results;
  let cases =
    Array.fold_left (fun acc rr -> acc @ rr.rr_cases) [] results
  in
  let confusion_of ~arm ~detector =
    List.fold_left
      (fun acc (case_arm, truth, verdicts) ->
        if arm <> None && arm <> Some case_arm then acc
        else
          Stats.confusion_add acc ~truth ~flagged:(List.assoc detector verdicts))
      Stats.no_confusion cases
  in
  let scores =
    List.concat_map
      (fun arm ->
        List.map
          (fun detector ->
            {
              sc_arm = arm;
              sc_detector = detector;
              sc_confusion = confusion_of ~arm ~detector;
            })
          detectors)
      (List.map (fun a -> Some a) Scenario.all_arms @ [ None ])
  in
  let reasons =
    Array.fold_left
      (fun acc rr ->
        List.map2
          (fun (r, n) (r', n') ->
            assert (r = r');
            (r, n + n'))
          acc rr.rr_reasons)
      (List.map (fun r -> (r, 0)) Watch.all_reasons)
      results
  in
  let class_tally =
    Array.fold_left
      (fun acc rr ->
        List.map2
          (fun (c, n) (c', n') ->
            assert (c = c');
            (c, n + n'))
          acc rr.rr_class_tally)
      (List.map (fun c -> (c, 0)) Cpolicy.all_classes)
      results
  in
  {
    r_runs = Array.length specs;
    r_smoke = smoke;
    r_seed = seed;
    r_scores = scores;
    r_reasons = reasons;
    r_class_tally = class_tally;
    r_events = Array.fold_left (fun n rr -> n + rr.rr_events) 0 results;
    r_scrubbed_values =
      (* summed from the per-run registries, which are always live, so the
         total survives a noop caller registry *)
      Array.fold_left
        (fun n rr ->
          n
          + Obs.Registry.sum_counters rr.rr_metrics
              "community_scrubbed_values")
        0 results;
  }

let score result ?arm detector =
  match
    List.find_opt
      (fun sc -> sc.sc_arm = arm && sc.sc_detector = detector)
      result.r_scores
  with
  | Some sc -> sc.sc_confusion
  | None -> Stats.no_confusion

let scrubbing_gap_holds result =
  let moas = score result ~arm:Scenario.Scrubbed "moas-list" in
  let community = score result ~arm:Scenario.Scrubbed "community" in
  let baseline_moas = score result ~arm:Scenario.Baseline "moas-list" in
  (* the §4.3 weakness, quantified: a list check that works on the
     baseline goes blind under scrubbing, the dynamics check does not *)
  Stats.recall baseline_moas = 1.0
  && Stats.recall moas = 0.0
  && Stats.recall community = 1.0

let arm_cell = function
  | Some arm -> Scenario.arm_to_string arm
  | None -> "overall"

let render result =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "== community-telemetry head-to-head (%s) ==\n"
       (if result.r_smoke then "smoke" else "full"));
  Buffer.add_string buf
    (Printf.sprintf
       "seed %Ld, %d runs (%d arms x %s x %d replicates), 3 prefixes scored \
        per run\n"
       result.r_seed result.r_runs
       (List.length Scenario.all_arms)
       (if result.r_smoke then "1 topology" else "3 topologies")
       (if result.r_smoke then 2 else 3));
  Buffer.add_string buf
    (Printf.sprintf
       "usage classes across runs: %s; %d watch observations, %d community \
        values scrubbed in transit\n\n"
       (String.concat ", "
          (List.map
             (fun (c, n) ->
               Printf.sprintf "%s %d" (Cpolicy.class_to_string c) n)
             result.r_class_tally))
       result.r_events result.r_scrubbed_values);
  let rows =
    List.map
      (fun sc ->
        let c = sc.sc_confusion in
        [
          arm_cell sc.sc_arm;
          sc.sc_detector;
          string_of_int c.Stats.tp;
          string_of_int c.Stats.fp;
          string_of_int c.Stats.tn;
          string_of_int c.Stats.fn;
          Mutil.Text_table.float_cell (Stats.precision c);
          Mutil.Text_table.float_cell (Stats.recall c);
          Mutil.Text_table.float_cell (Stats.f1 c);
        ])
      result.r_scores
  in
  Buffer.add_string buf
    (Mutil.Text_table.render
       ~header:
         [ "arm"; "detector"; "tp"; "fp"; "tn"; "fn"; "prec"; "recall"; "f1" ]
       rows);
  Buffer.add_string buf "\ncommunity alarm reasons: ";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (r, n) ->
            Printf.sprintf "%s %d" (Watch.reason_to_string r) n)
          result.r_reasons));
  Buffer.add_char buf '\n';
  let scrubbed_moas = score result ~arm:Scenario.Scrubbed "moas-list" in
  let scrubbed_community = score result ~arm:Scenario.Scrubbed "community" in
  Buffer.add_string buf
    (Printf.sprintf
       "scrubbed arm: moas-list recall %s vs community recall %s\n"
       (Mutil.Text_table.float_cell (Stats.recall scrubbed_moas))
       (Mutil.Text_table.float_cell (Stats.recall scrubbed_community)));
  Buffer.add_string buf
    (Printf.sprintf
       "scrubbing blinds the MOAS list while community dynamics still fire: \
        %s\n"
       (if scrubbing_gap_holds result then "confirmed" else "NOT confirmed"));
  Buffer.contents buf

let report ?metrics ?seed ?smoke ?jobs () =
  render (evaluate ?metrics ?seed ?smoke ?jobs ())
