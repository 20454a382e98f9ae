(* Differential test of Bgp.Router's decision.  The router judges an
   UPDATE's route against the incumbent alone when nothing else can have
   moved the best route, asks a validator with a verdict about the moved
   route alone, and scans every candidate otherwise.  On generated
   sequences of announcements, withdrawals, looped routes, originations,
   session losses and restorations, crashes and restarts -- under an
   identity validator, a validator that filters by time, and the MOAS
   detector with a registry, detect-only, or a verifier that never
   answers, with and without its self-consistency check, each with and
   without route-flap damping -- two routers run side by side: one whose
   detector gives verdicts and one that filters every candidate at every
   decision.  After every step both routers' best routes for every prefix
   must equal a full-scan reference (Reference.router_best); at the end
   their detectors must have raised the same alarms, made the same
   verifier calls and oracle queries, and discarded the same number of
   routes. *)

open Net
module Router = Bgp.Router
module D = Moas.Detector

let self = Asn.make 50
let peers = [ 1; 2; 3; 4 ]
let prefixes = [| Prefix.of_string "192.0.2.0/24"; Prefix.of_string "198.51.100.0/24" |]

(* origin 7 is the one the time filter drops and the registry does not
   entitle for the first prefix; the second prefix has no record *)
let registry () =
  let oracle = Moas.Origin_verification.create () in
  Moas.Origin_verification.register oracle prefixes.(0) (Asn.Set.of_list [ 10; 11 ]);
  oracle

type backend = Oracle | Detect_only | Fails_open

type validator_kind =
  | Identity
  | Time_filter
  | Detector of { backend : backend; self_consistency : bool }

(* drops origin 7 during every other 100-second window; Route.filter
   returns its input itself when it drops nothing *)
let time_filter ~now ~prefix:_ routes =
  if int_of_float (now /. 100.) mod 2 = 1 then
    Bgp.Route.filter (fun r -> not (Asn.equal (Bgp.Route.origin_as ~self r) 7)) routes
  else routes

(* One validator instance and what it counted: a detector has its own
   registry, metrics and oracle, so the instances compared never share
   state. *)
type instance = {
  validator : Router.validator;
  alarms : unit -> Moas.Alarm.t list;
  metrics : Obs.Registry.t;
  queries : unit -> int;
}

let stateless filter =
  {
    validator = Router.scan_only filter;
    alarms = (fun () -> []);
    metrics = Obs.Registry.noop;
    queries = (fun () -> 0);
  }

let instance = function
  | Identity -> stateless (fun ~now:_ ~prefix:_ routes -> routes)
  | Time_filter -> stateless time_filter
  | Detector { backend; self_consistency } ->
    let oracle = registry () in
    let metrics = Obs.Registry.create () in
    let backend =
      match backend with
      | Oracle -> D.Oracle oracle
      | Detect_only -> D.Detect_only
      | Fails_open -> D.Custom (fun ~now:_ _ -> None)
    in
    let d = D.create ~backend ~check_self_consistency:self_consistency ~metrics ~self () in
    {
      validator = D.validator d;
      alarms = (fun () -> D.alarms d);
      metrics;
      queries = (fun () -> Moas.Origin_verification.query_count oracle);
    }

type announce = {
  peer : int;
  prefix : int;
  middle : int list;  (** ASes between the peer and the origin *)
  origin_as : int;
  local_pref : int;
  egp : bool;
  listed : bool;  (** carries the MOAS list {10, 11} *)
}

type step =
  | Announce of announce
  | Loop of int * int  (** a route from the peer whose path crosses [self] *)
  | Withdraw of int * int
  | Originate of int * bool
  | Withdraw_origin of int
  | Peer_down of int
  | Peer_up of int
  | Crash
  | Restart

let peer_gen = QCheck2.Gen.oneofl peers
let prefix_gen = QCheck2.Gen.int_bound (Array.length prefixes - 1)

let announce_gen =
  QCheck2.Gen.(
    let* peer = peer_gen in
    let* prefix = prefix_gen in
    let* middle = list_size (int_bound 2) (int_range 20 23) in
    let* origin_as = oneofl [ 10; 11; 7 ] in
    let* local_pref = oneofl [ 90; 100; 100; 110 ] in
    let* egp = frequency [ (4, pure false); (1, pure true) ] in
    let+ listed = bool in
    { peer; prefix; middle; origin_as; local_pref; egp; listed })

let step_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, map (fun a -> Announce a) announce_gen);
        (1, map2 (fun peer prefix -> Loop (peer, prefix)) peer_gen prefix_gen);
        (4, map2 (fun peer prefix -> Withdraw (peer, prefix)) peer_gen prefix_gen);
        (1, map2 (fun prefix listed -> Originate (prefix, listed)) prefix_gen bool);
        (1, map (fun prefix -> Withdraw_origin prefix) prefix_gen);
        (1, map (fun peer -> Peer_down peer) peer_gen);
        (1, map (fun peer -> Peer_up peer) peer_gen);
        (1, oneofl [ Crash; Restart ]);
      ])

(* mostly seconds apart, so that flaps pile up penalty; now and then long
   enough for a suppressed route to decay towards reuse *)
let gap_gen = QCheck2.Gen.(frequency [ (6, float_bound_inclusive 30.); (1, pure 1500.) ])

type scenario = { validator : validator_kind; damping : bool; steps : (float * step) list }

let validator_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, pure Identity);
        (1, pure Time_filter);
        ( 4,
          map2
            (fun backend self_consistency -> Detector { backend; self_consistency })
            (oneofl [ Oracle; Oracle; Detect_only; Fails_open ])
            bool );
      ])

let scenario_gen =
  QCheck2.Gen.(
    let* validator = validator_gen in
    let* damping = bool in
    let+ steps = list_size (int_range 1 60) (pair gap_gen step_gen) in
    { validator; damping; steps })

let listed_communities = Moas.Moas_list.encode (Asn.Set.of_list [ 10; 11 ])

let announced a =
  {
    Bgp.Route.prefix = prefixes.(a.prefix);
    as_path = Bgp.As_path.of_list ((a.peer :: a.middle) @ [ a.origin_as ]);
    origin = (if a.egp then Bgp.Route.Egp else Bgp.Route.Igp);
    learned_from = Asn.make a.peer;
    local_pref = a.local_pref;
    communities = (if a.listed then listed_communities else Bgp.Community.Set.empty);
  }

let originated prefix listed =
  Bgp.Route.originate ~self
    ~communities:(if listed then listed_communities else Bgp.Community.Set.empty)
    prefixes.(prefix)

(* the prefixes a step makes the router decide, as the step's inputs say *)
let decided router origins = function
  | Announce a -> [ prefixes.(a.prefix) ]
  | Loop (_, p) | Withdraw (_, p) | Originate (p, _) | Withdraw_origin p -> [ prefixes.(p) ]
  | Peer_down peer when List.mem peer (Router.peers router) ->
    List.filter
      (fun p ->
        List.exists
          (fun r -> Asn.equal r.Bgp.Route.learned_from peer)
          (Bgp.Rib.candidates (Bgp.Rib.entry (Router.rib router) p)))
      (Array.to_list prefixes)
  | Restart ->
    List.filteri (fun i _ -> Option.is_some origins.(i)) (Array.to_list prefixes)
  | Peer_down _ | Peer_up _ | Crash -> []

let apply router ~now = function
  | Announce a ->
    Router.handle_update router ~clock:(ref now) (Bgp.Update.announce ~sender:a.peer (announced a))
  | Loop (peer, p) ->
    let looped =
      { peer; prefix = p; middle = [ self ]; origin_as = 10; local_pref = 100;
        egp = false; listed = false }
    in
    Router.handle_update router ~clock:(ref now) (Bgp.Update.announce ~sender:peer (announced looped))
  | Withdraw (peer, p) ->
    Router.handle_update router ~clock:(ref now) (Bgp.Update.withdraw ~sender:peer prefixes.(p))
  | Originate (p, listed) -> Router.originate router ~now (originated p listed)
  | Withdraw_origin p -> Router.withdraw_origin router ~now prefixes.(p)
  | Peer_down peer -> Router.peer_down router ~now peer
  | Peer_up peer -> Router.peer_up router ~now peer
  | Crash -> Router.crash router
  | Restart -> Router.restart router ~now

let router ~damping validator =
  let router =
    Router.create ~validator
      ?damping:(if damping then Some Router.default_damping else None)
      ~peers:(Array.of_list peers) self
  in
  (* updates go nowhere and damping's reuse timers never fire: a
     suppressed route comes back at its prefix's next decision *)
  Router.set_transport router
    { Router.send = (fun ~from:_ ~peer:_ ~slot:_ _ -> ()); schedule = (fun ~delay:_ _ -> ()) }
    ~index:0;
  router

let alarm_key (a : Moas.Alarm.t) = (a.Moas.Alarm.time, Moas.Alarm.signature a)

let counted { alarms; metrics; queries; _ } =
  let count = Obs.Registry.counter_value metrics ~labels:[ ("as", Asn.to_string self) ] in
  ( List.map alarm_key (alarms ()),
    count "moas_verify_calls",
    count "moas_routes_discarded",
    queries () )

(* Drive the two routers through the steps; after each, re-decide every
   prefix the step touched by the reference and compare every prefix's
   best route of both routers with it.  The reference filters with its
   own validator instance, called as the scanning router calls its own. *)
let agrees { validator; damping; steps } =
  let judged = instance validator and scanned = instance validator in
  let reference = Router.filter (instance validator).validator in
  let with_verdict = router ~damping judged.validator in
  let scan_only = router ~damping (Router.scan_only (Router.filter scanned.validator)) in
  let origins = Array.make (Array.length prefixes) None in
  let expected = Array.make (Array.length prefixes) None in
  let now = ref 0. in
  List.for_all
    (fun (gap, step) ->
      now := !now +. gap;
      let now = !now in
      let touched = decided scan_only origins step in
      apply with_verdict ~now step;
      apply scan_only ~now step;
      (match step with
      | Originate (p, listed) -> origins.(p) <- Some (originated p listed)
      | Withdraw_origin p -> origins.(p) <- None
      | Crash -> Array.fill expected 0 (Array.length expected) None
      | Announce _ | Loop _ | Withdraw _ | Peer_down _ | Peer_up _ | Restart -> ());
      List.iter
        (fun prefix ->
          let i = if Prefix.equal prefix prefixes.(0) then 0 else 1 in
          let admitted (r : Bgp.Route.t) =
            Asn.equal r.learned_from self
            || not (Router.is_suppressed scan_only ~peer:r.learned_from prefix ~now)
          in
          expected.(i) <-
            Testutil.Reference.router_best ~validate:reference ~admitted
              ~originated:origins.(i) ~incumbent:expected.(i) ~now (Router.rib scan_only)
              prefix)
        touched;
      Array.for_all2
        (fun prefix want ->
          Option.equal Bgp.Route.equal (Router.best with_verdict prefix) want
          && Option.equal Bgp.Route.equal (Router.best scan_only prefix) want)
        prefixes expected)
    steps
  && counted judged = counted scanned

let show_step = function
  | Announce a ->
    Printf.sprintf "announce peer=%d prefix=%d path=%s origin=%d lp=%d%s%s" a.peer a.prefix
      (String.concat "," (List.map string_of_int a.middle))
      a.origin_as a.local_pref
      (if a.egp then " egp" else "")
      (if a.listed then " listed" else "")
  | Loop (peer, p) -> Printf.sprintf "loop peer=%d prefix=%d" peer p
  | Withdraw (peer, p) -> Printf.sprintf "withdraw peer=%d prefix=%d" peer p
  | Originate (p, listed) -> Printf.sprintf "originate prefix=%d listed=%b" p listed
  | Withdraw_origin p -> Printf.sprintf "withdraw_origin prefix=%d" p
  | Peer_down peer -> Printf.sprintf "peer_down %d" peer
  | Peer_up peer -> Printf.sprintf "peer_up %d" peer
  | Crash -> "crash"
  | Restart -> "restart"

let show { validator; damping; steps } =
  let kind =
    match validator with
    | Identity -> "identity"
    | Time_filter -> "time filter"
    | Detector { backend; self_consistency } ->
      Printf.sprintf "detector %s self_consistency=%b"
        (match backend with
        | Oracle -> "oracle"
        | Detect_only -> "detect-only"
        | Fails_open -> "fails open")
        self_consistency
  in
  String.concat "\n"
    (Printf.sprintf "%s damping=%b" kind damping
    :: List.map (fun (gap, step) -> Printf.sprintf "+%g %s" gap (show_step step)) steps)

let prop_router_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~print:show
       ~name:"router best route agrees with a full-scan reference" scenario_gen agrees)

(* The shortcut's two guards on one hand-made sequence each: a route the
   validator dropped at the last decision, and a suppressed route coming
   back better.  Both must be decided by the scan. *)
let test_guards () =
  let announce peer ?(middle = []) origin_as =
    Announce
      { peer; prefix = 0; middle; origin_as; local_pref = 100; egp = false; listed = false }
  in
  let cases =
    [
      ( "filtered at the last decision",
        {
          validator = Time_filter;
          damping = false;
          steps =
            [
              (150., announce 1 ~middle:[ 20; 21 ] 10);
              (0., announce 2 7);
              (100., announce 3 ~middle:[ 20; 21; 22 ] 11);
            ];
        } );
      ( "suppressed by damping",
        {
          validator = Identity;
          damping = true;
          steps =
            [
              (1., announce 1 ~middle:[ 20 ] 10);
              (1., announce 2 ~middle:[ 20; 21 ] 10);
              (1., Withdraw (2, 0));
              (1., announce 2 ~middle:[ 20; 21 ] 10);
              (1., Withdraw (2, 0));
              (1., announce 2 10);
            ];
        } );
    ]
  in
  List.iter
    (fun (name, scenario) -> Alcotest.(check bool) name true (agrees scenario))
    cases

let () =
  Alcotest.run "decision_diff"
    [
      ( "differential",
        [
          prop_router_matches_reference;
          Alcotest.test_case "shortcut guards" `Quick test_guards;
        ] );
    ]
