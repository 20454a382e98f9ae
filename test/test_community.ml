(* Tests for the community-telemetry detection backend: the usage-policy
   model (lib/bgp), the Community_watch dynamics rules (lib/core) and the
   head-to-head evaluation (lib/experiments). *)

open Net
module Community = Bgp.Community
module Cpolicy = Bgp.Community_policy
module Watch = Moas.Community_watch

let victim = Testutil.victim

(* ---------------- well-known rendering ---------------- *)

let test_well_known_rendering () =
  List.iter
    (fun (c, expected) ->
      Alcotest.(check string) expected expected (Community.to_string c))
    [
      (Community.no_export, "NO_EXPORT");
      (Community.no_advertise, "NO_ADVERTISE");
      (Community.no_export_subconfed, "NO_EXPORT_SUBCONFED");
      (Community.blackhole, "BLACKHOLE");
    ];
  Alcotest.(check string) "ordinary value renders asn:value" "64512:100"
    (Community.to_string (Community.make (Asn.make 64512) 100));
  (* reserved-range values without an assigned name keep the numeric form *)
  Alcotest.(check string) "unassigned reserved value" "65535:999"
    (Community.to_string (Community.make Community.well_known_asn 999));
  Alcotest.(check bool) "NO_EXPORT is 65535:65281" true
    (Community.equal Community.no_export
       (Community.make Community.well_known_asn 0xff01))

(* ---------------- usage-class assignment ---------------- *)

let topo () = Topology.Paper_topologies.topology_25 ()

let test_class_determinism () =
  let t = topo () in
  let mk seed =
    Cpolicy.make ~scrub_fraction:0.5 ~seed ~transit:t.Topology.Paper_topologies.transit
      t.Topology.Paper_topologies.graph
  in
  let a = mk 42L and b = mk 42L in
  Asn.Set.iter
    (fun asn ->
      Alcotest.(check string)
        (Printf.sprintf "class of AS%s stable" (Asn.to_string asn))
        (Cpolicy.class_to_string (Cpolicy.class_of a asn))
        (Cpolicy.class_to_string (Cpolicy.class_of b asn));
      Alcotest.(check int)
        (Printf.sprintf "region of AS%s stable" (Asn.to_string asn))
        (Cpolicy.region_of a asn) (Cpolicy.region_of b asn))
    (Topology.As_graph.nodes t.Topology.Paper_topologies.graph);
  Alcotest.(check bool) "tallies agree" true (Cpolicy.tally a = Cpolicy.tally b);
  (* every class is exercised at this scrub fraction *)
  List.iter
    (fun (cls, n) ->
      Alcotest.(check bool)
        (Cpolicy.class_to_string cls ^ " class populated")
        true (n > 0))
    (Cpolicy.tally a);
  (* transit ASes never land in the stub classes and vice versa *)
  Asn.Set.iter
    (fun asn ->
      let transit = Asn.Set.mem asn t.Topology.Paper_topologies.transit in
      match Cpolicy.class_of a asn with
      | Cpolicy.Path | Cpolicy.Scrub ->
        Alcotest.(check bool) "tag-rewriting class is transit" true transit
      | Cpolicy.Location | Cpolicy.Blackhole ->
        Alcotest.(check bool) "stamping class is a stub" true (not transit))
    (Topology.As_graph.nodes t.Topology.Paper_topologies.graph)

let test_force_class () =
  let t = topo () in
  let model =
    Cpolicy.make ~seed:7L ~transit:t.Topology.Paper_topologies.transit
      t.Topology.Paper_topologies.graph
  in
  Alcotest.(check bool) "no scrubbers by default" true
    (Asn.Set.is_empty (Cpolicy.scrubbers model));
  let chosen = Asn.Set.of_list [ 4; 226 ] in
  let forced = Cpolicy.force_class model chosen Cpolicy.Scrub in
  Alcotest.(check bool) "forced set is exactly the scrub set" true
    (Asn.Set.equal chosen (Cpolicy.scrubbers forced));
  Alcotest.(check bool) "original model untouched" true
    (Asn.Set.is_empty (Cpolicy.scrubbers model))

(* ---------------- scrubbing semantics ---------------- *)

let test_scrub_export () =
  let t = topo () in
  let self = Asn.make 4 and peer = Asn.make 226 in
  let model =
    Cpolicy.force_class
      (Cpolicy.make ~seed:7L ~transit:t.Topology.Paper_topologies.transit
         t.Topology.Paper_topologies.graph)
      (Asn.Set.singleton self) Cpolicy.Scrub
  in
  let policy = Cpolicy.policy model self in
  let own = Community.make self 201 in
  let foreign = Community.make (Asn.make 7) 105 in
  let moas = Testutil.moas_communities [ 1; 9 ] in
  let communities =
    Community.Set.add own (Community.Set.add foreign moas)
  in
  (* a transit route: learned from a peer, then re-exported *)
  let transit_route =
    Testutil.route ~communities ~from:(Asn.to_int peer)
      [ Asn.to_int peer; 9 ]
  in
  (match policy.Bgp.Policy.export ~peer transit_route with
  | None -> Alcotest.fail "scrubber filtered the route itself"
  | Some r ->
    Alcotest.(check bool) "exactly the self-tag survives" true
      (Community.Set.equal r.Bgp.Route.communities
         (Community.Set.singleton own));
    Alcotest.(check bool) "the MOAS list is gone" true
      (Community.Set.is_empty
         (Community.Set.inter r.Bgp.Route.communities moas)));
  (* the scrubber's own origination is exempt: its communities pass *)
  let originated =
    Bgp.Route.originate ~communities:moas ~self victim
  in
  match policy.Bgp.Policy.export ~peer originated with
  | None -> Alcotest.fail "origination filtered"
  | Some r ->
    Alcotest.(check bool) "own origination keeps its communities" true
      (Community.Set.subset moas r.Bgp.Route.communities)

let test_scrub_import_tags_ingress () =
  let t = topo () in
  let self = Asn.make 4 and peer = Asn.make 226 in
  let model =
    Cpolicy.force_class
      (Cpolicy.make ~seed:7L ~transit:t.Topology.Paper_topologies.transit
         t.Topology.Paper_topologies.graph)
      (Asn.Set.singleton self) Cpolicy.Scrub
  in
  let policy = Cpolicy.policy model self in
  let route = Testutil.route ~from:(Asn.to_int peer) [ Asn.to_int peer ] in
  match policy.Bgp.Policy.import ~peer route with
  | None -> Alcotest.fail "import rejected"
  | Some r ->
    let expected = Cpolicy.ingress_tag model ~self ~peer in
    Alcotest.(check bool) "ingress tag stamped on import" true
      (Community.Set.mem expected r.Bgp.Route.communities);
    Alcotest.(check bool) "ingress tag is in the reserved window" true
      (Cpolicy.is_tag_value expected.Community.value)

(* ---------------- watch rules ---------------- *)

let tag asn value = Community.Set.singleton (Community.make (Asn.make asn) value)

let reasons_of anomalies = List.map (fun a -> a.Watch.a_reason) anomalies

let test_watch_warmup_absorbs () =
  let w = Watch.create ~warmup_until:10.0 ~self:(Asn.make 99) () in
  Alcotest.(check int)
    "pre-warmup observation is silent" 0
    (List.length
       (Watch.observe_route w ~now:1.0 ~prefix:victim ~origin:(Asn.make 1)
          (tag 1 100)));
  (* the absorbed profile still counts: a post-warmup stranger fires *)
  let found =
    Watch.observe_route w ~now:11.0 ~prefix:victim ~origin:(Asn.make 66)
      (tag 66 101)
  in
  Alcotest.(check bool) "tagger churn after warmup" true
    (reasons_of found = [ Watch.Tagger_churn ])

let test_watch_dedup () =
  (* scrub-event can recur — a prefix keeps arriving bare — but each
     (prefix, reason, origin) alarms exactly once *)
  let w = Watch.create ~self:(Asn.make 99) () in
  let opening =
    Watch.observe_route w ~now:0.0 ~prefix:victim ~origin:(Asn.make 1)
      (tag 1 100)
  in
  Alcotest.(check bool) "first warm stranger is tagger churn" true
    (reasons_of opening = [ Watch.Tagger_churn ]);
  let first =
    Watch.observe_route w ~now:1.0 ~prefix:victim ~origin:(Asn.make 1)
      Community.Set.empty
  in
  Alcotest.(check bool) "scrub event fires once" true
    (reasons_of first = [ Watch.Scrub_event ]);
  let again =
    Watch.observe_route w ~now:2.0 ~prefix:victim ~origin:(Asn.make 1)
      Community.Set.empty
  in
  Alcotest.(check int) "deduplicated per (prefix, reason, origin)" 0
    (List.length again);
  Alcotest.(check int) "two anomalies total" 2 (Watch.anomaly_count w)

let test_watch_origin_retag () =
  let w = Watch.create ~self:(Asn.make 99) () in
  ignore
    (Watch.observe_route w ~now:0.0 ~prefix:victim ~origin:(Asn.make 1)
       (tag 1 100));
  (* the origin's own stamp flips to a different nonempty set *)
  let found =
    Watch.observe_route w ~now:1.0 ~prefix:victim ~origin:(Asn.make 1)
      (tag 1 107)
  in
  Alcotest.(check bool) "origin retag fires" true
    (List.mem Watch.Origin_retag (reasons_of found))

let test_watch_scrub_event () =
  let w = Watch.create ~self:(Asn.make 99) () in
  ignore
    (Watch.observe_route w ~now:0.0 ~prefix:victim ~origin:(Asn.make 1)
       (tag 1 100));
  let found =
    Watch.observe_route w ~now:1.0 ~prefix:victim ~origin:(Asn.make 1)
      Community.Set.empty
  in
  Alcotest.(check bool) "bare arrival from a carrier prefix fires" true
    (reasons_of found = [ Watch.Scrub_event ])

let test_watch_path_inconsistency () =
  let w = Watch.create ~warmup_until:0.5 ~self:(Asn.make 99) () in
  let path = Asn.Set.of_list [ 1; 2 ] in
  (* build the profile during warmup so the stranger-origin rule stays out
     of the way: this test isolates the path rule *)
  ignore
    (Watch.observe_route w ~now:0.0 ~prefix:victim ~origin:(Asn.make 1)
       ~path (tag 1 100));
  Alcotest.(check int)
    "on-path tag is fine" 0
    (List.length
       (Watch.observe_route w ~now:1.0 ~prefix:victim ~origin:(Asn.make 1)
          ~path (tag 2 100)));
  let found =
    Watch.observe_route w ~now:2.0 ~prefix:victim ~origin:(Asn.make 1) ~path
      (tag 77 150)
  in
  Alcotest.(check bool) "off-path tagger fires" true
    (List.mem Watch.Path_inconsistency (reasons_of found))

let test_watch_ignores_list_and_reserved () =
  (* MOAS-list members and the RFC 1997 reserved range are not telemetry:
     a new origin carrying only those must not trip the dynamics *)
  let w = Watch.create ~self:(Asn.make 99) () in
  ignore
    (Watch.observe_route w ~now:0.0 ~prefix:victim ~origin:(Asn.make 1)
       (tag 1 100));
  let noise =
    Community.Set.add Community.no_export (Testutil.moas_communities [ 66 ])
  in
  (* bare-while-profiled still applies, so give it one real known value *)
  let found =
    Watch.observe_route w ~now:1.0 ~prefix:victim ~origin:(Asn.make 66)
      (Community.Set.union noise (tag 1 100))
  in
  Alcotest.(check int) "list members and well-knowns ignored" 0
    (List.length found)

(* ---------------- archive replay: the two fault events ---------------- *)

module Srv = Measurement.Synthetic_routeviews
module Src = Stream.Source

let test_archive_fault_events_dominate () =
  (* Replay the synthetic RouteViews archive through the watch with a
     synthesized location tag per origin (the archive records no
     community attributes).  The two injected faults — 1998-04-07 and
     2001-04-06 — put a stranger AS behind hundreds of prefixes at once,
     so those two days must lead the anomaly tally. *)
  let stamp origin =
    Community.Set.singleton
      (Community.make origin (100 + (Asn.to_int origin mod 8)))
  in
  let _, per_day =
    Src.fold_archive Srv.smoke_params ~init:(None, [])
      ~f:(fun (watch, tally) batch ->
        let w =
          match watch with
          | Some w -> w
          | None ->
            (* warm up on the opening table: day one only builds state *)
            Watch.create
              ~warmup_until:(float_of_int (batch.Src.time + 1))
              ~self:(Asn.make 0) ()
        in
        let now = float_of_int batch.Src.time in
        let count = ref 0 in
        Array.iter
          (fun ev ->
            match ev.Stream.Monitor.action with
            | Stream.Monitor.Announce { origin; _ } ->
              count :=
                !count
                + List.length
                    (Watch.observe_route w ~now
                       ~prefix:ev.Stream.Monitor.prefix ~origin
                       (stamp origin))
            | Stream.Monitor.Withdraw _ -> ())
          batch.Src.events;
        let tally =
          match batch.Src.day with
          | Some day when !count > 0 -> (day, !count) :: tally
          | _ -> tally
        in
        (Some w, tally))
  in
  let ranked =
    List.sort (fun (_, a) (_, b) -> compare b a) (List.rev per_day)
  in
  match ranked with
  | (d1, n1) :: (d2, n2) :: _ ->
    let top2 = List.sort compare [ d1; d2 ] in
    let events = List.sort compare [ Srv.event_1998; Srv.event_2001 ] in
    Alcotest.(check (list int))
      (Printf.sprintf "top anomaly days (%d and %d alarms) are the faults"
         n1 n2)
      events top2
  | _ -> Alcotest.fail "fewer than two anomalous days"

(* ---------------- head-to-head determinism ---------------- *)

let test_evaluation_deterministic_across_jobs () =
  let r1 = Experiments.Community.report ~smoke:true ~jobs:1 () in
  let r4 = Experiments.Community.report ~smoke:true ~jobs:4 () in
  Alcotest.(check string) "jobs 1 and 4 render byte-identically" r1 r4

let test_scrubbing_gap () =
  let result = Experiments.Community.evaluate ~smoke:true ~jobs:2 () in
  Alcotest.(check bool)
    "moas-list blind and community firing under scrubbing" true
    (Experiments.Community.scrubbing_gap_holds result);
  (* the scrubbed arm actually scrubbed something *)
  Alcotest.(check bool) "scrub counters nonzero" true
    (result.Experiments.Community.r_scrubbed_values > 0);
  Alcotest.(check bool) "watch observed events" true
    (result.Experiments.Community.r_events > 0)

let () =
  Alcotest.run "community"
    [
      ( "rendering",
        [ Alcotest.test_case "well-known names" `Quick test_well_known_rendering ] );
      ( "usage model",
        [
          Alcotest.test_case "classes deterministic from seed" `Quick
            test_class_determinism;
          Alcotest.test_case "force_class" `Quick test_force_class;
          Alcotest.test_case "scrub export drops exactly foreign values"
            `Quick test_scrub_export;
          Alcotest.test_case "scrub import stamps ingress" `Quick
            test_scrub_import_tags_ingress;
        ] );
      ( "watch rules",
        [
          Alcotest.test_case "warmup absorbs" `Quick test_watch_warmup_absorbs;
          Alcotest.test_case "alarm dedup" `Quick test_watch_dedup;
          Alcotest.test_case "origin retag" `Quick test_watch_origin_retag;
          Alcotest.test_case "scrub event" `Quick test_watch_scrub_event;
          Alcotest.test_case "path inconsistency" `Quick
            test_watch_path_inconsistency;
          Alcotest.test_case "list members ignored" `Quick
            test_watch_ignores_list_and_reserved;
        ] );
      ( "archive replay",
        [
          Alcotest.test_case "fault days lead the anomaly tally" `Quick
            test_archive_fault_events_dominate;
        ] );
      ( "head-to-head",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_evaluation_deterministic_across_jobs;
          Alcotest.test_case "scrubbing gap holds" `Quick test_scrubbing_gap;
        ] );
    ]
