(* Differential test of Moas.Detector's list check against the plain
   list-based validator it replaced, kept here as the reference: decode
   every route's MOAS list, build the effective lists as sets, compare
   them with Moas_list.all_consistent, and filter with List.filter.  On
   generated call sequences both must keep the same routes in the same
   order, raise the same alarms and consult the verifier equally often. *)

open Net
module D = Moas.Detector
module StringSet = Set.Make (String)

module Reference = struct
  type t = {
    self : Asn.t;
    verify : (now:float -> Prefix.t -> Asn.Set.t option) option;
    check_self_consistency : bool;
    mutable seen : StringSet.t;
    mutable alarms_rev : Moas.Alarm.t list;
    mutable verified : Asn.Set.t Prefix.Map.t;
    mutable verify_calls : int;
  }

  let create ?verify ~check_self_consistency ~self () =
    {
      self;
      verify;
      check_self_consistency;
      seen = StringSet.empty;
      alarms_rev = [];
      verified = Prefix.Map.empty;
      verify_calls = 0;
    }

  let raise_alarm t ~now ~prefix ~lists ~origins =
    let alarm =
      Moas.Alarm.make ~observer:t.self ~prefix ~time:now ~conflicting_lists:lists
        ~origins_seen:origins
    in
    let signature = Moas.Alarm.signature alarm in
    if not (StringSet.mem signature t.seen) then begin
      t.seen <- StringSet.add signature t.seen;
      t.alarms_rev <- alarm :: t.alarms_rev
    end

  let filter_entitled t entitled routes =
    List.filter
      (fun r -> Asn.Set.mem (Bgp.Route.origin_as ~self:t.self r) entitled)
      routes

  let validator t ~now ~prefix routes =
    let routes =
      if t.check_self_consistency then
        List.filter (Moas.Moas_list.self_consistent ~self:t.self) routes
      else routes
    in
    let routes =
      match Prefix.Map.find_opt prefix t.verified with
      | Some entitled -> filter_entitled t entitled routes
      | None -> routes
    in
    let lists =
      List.sort_uniq Asn.Set.compare
        (List.map (Moas.Moas_list.effective ~self:t.self) routes)
    in
    if Moas.Moas_list.all_consistent lists then routes
    else begin
      let origins =
        List.fold_left
          (fun acc r -> Asn.Set.add (Bgp.Route.origin_as ~self:t.self r) acc)
          Asn.Set.empty routes
      in
      raise_alarm t ~now ~prefix ~lists ~origins;
      match t.verify with
      | None -> routes
      | Some verify ->
        t.verify_calls <- t.verify_calls + 1;
        (match verify ~now prefix with
        | None -> routes
        | Some entitled ->
          t.verified <- Prefix.Map.add prefix entitled t.verified;
          filter_entitled t entitled routes)
    end

  let alarms t = List.rev t.alarms_rev
end

let self = Asn.make 50
let prefixes = [| Prefix.of_string "192.0.2.0/24"; Prefix.of_string "198.51.100.0/24" |]

(* the registry's verdict per prefix: an entitled set, or none at all
   (the detector then fails open) *)
let verdict prefix =
  if Prefix.equal prefix prefixes.(0) then Some (Asn.Set.of_list [ 1; 2 ]) else None

(* ---- generated inputs: descriptions first, routes materialised per
   sequence so that "shared" community sets really are one value ---- *)

type path_shape =
  | Self_originated  (** empty path, learned from the detector's own AS *)
  | Sequence of int list  (** AS_SEQUENCE, origin last *)
  | Ends_in_set of int list * int list  (** sequence head, AS_SET tail *)

type list_shape =
  | No_list
  | Shared of int  (** one physical value per list index *)
  | Fresh of int  (** the same members, a new value every time *)
  | With_other_communities of int  (** the list plus unrelated communities *)

type route_desc = { from : int; path : path_shape; list : list_shape }

(* small AS numbers so that origins, lists and peers collide often *)
let lists_pool =
  [| [ 1 ]; [ 2 ]; [ 1; 2 ]; [ 1; 2; 3 ]; [ 3 ]; [ 2; 4 ]; [ 5; 6; 7 ]; [ 1; 5 ] |]

let route_gen =
  QCheck2.Gen.(
    let asn = int_range 1 7 in
    let path =
      frequency
        [
          (1, pure Self_originated);
          (6, map (fun l -> Sequence l) (list_size (int_range 1 3) asn));
          ( 2,
            map2
              (fun head set -> Ends_in_set (head, set))
              (list_size (int_range 0 2) asn)
              (list_size (int_range 1 3) asn) );
        ]
    in
    let list_index = int_bound (Array.length lists_pool - 1) in
    let moas_list =
      frequency
        [
          (4, pure No_list);
          (3, map (fun i -> Shared i) list_index);
          (2, map (fun i -> Fresh i) list_index);
          (1, map (fun i -> With_other_communities i) list_index);
        ]
    in
    map3 (fun from path list -> { from; path; list }) asn path moas_list)

type call = { prefix : int; at : float; routes : route_desc list }

let call_gen =
  QCheck2.Gen.(
    map3
      (fun prefix at routes -> { prefix; at; routes })
      (int_bound 1) (float_bound_inclusive 100.0)
      (list_size (int_range 0 6) route_gen))

type sequence = {
  check_self_consistency : bool;
  with_verifier : bool;
  calls : call list;
}

let sequence_gen =
  QCheck2.Gen.(
    map3
      (fun check_self_consistency with_verifier calls ->
        { check_self_consistency; with_verifier; calls })
      bool bool
      (list_size (int_range 1 25) call_gen))

let materialise_route shared prefix desc =
  let as_path =
    match desc.path with
    | Self_originated -> Bgp.As_path.empty
    | Sequence l -> Bgp.As_path.of_list (desc.from :: l)
    | Ends_in_set (head, set) ->
      [ Bgp.As_path.Seq (desc.from :: head); Bgp.As_path.Set (Asn.Set.of_list set) ]
  in
  let encode i = Moas.Moas_list.encode (Asn.Set.of_list lists_pool.(i)) in
  let communities =
    match desc.list with
    | No_list -> Bgp.Community.Set.empty
    | Shared i -> shared.(i)
    | Fresh i -> encode i
    | With_other_communities i ->
      Bgp.Community.Set.add (Bgp.Community.make (Asn.make 7) 100) (encode i)
  in
  {
    Bgp.Route.prefix;
    as_path;
    origin = Bgp.Route.Igp;
    learned_from = (match desc.path with Self_originated -> self | _ -> desc.from);
    local_pref = 100;
    communities;
  }

let alarm_equal (a : Moas.Alarm.t) (b : Moas.Alarm.t) =
  Asn.equal a.observer b.observer
  && Prefix.equal a.prefix b.prefix
  && Float.equal a.time b.time
  && List.equal Asn.Set.equal a.conflicting_lists b.conflicting_lists
  && Asn.Set.equal a.origins_seen b.origins_seen
  && String.equal (Moas.Alarm.signature a) (Moas.Alarm.signature b)

(* Run the same calls through both validators; every call must keep the
   same routes (physically) in the same order, and after every call the
   alarms and verifier calls must agree. *)
let agree ~check_self_consistency ~with_verifier calls =
  let calls_made = ref 0 in
  let verify ~now:_ prefix =
    incr calls_made;
    verdict prefix
  in
  let detector =
    D.create
      ~backend:(if with_verifier then D.Custom verify else D.Detect_only)
      ~check_self_consistency ~self ()
  in
  let reference =
    Reference.create
      ?verify:(if with_verifier then Some (fun ~now:_ p -> verdict p) else None)
      ~check_self_consistency ~self ()
  in
  let validate = Bgp.Router.filter (D.validator detector) in
  List.for_all
    (fun (prefix, now, routes) ->
      let kept = validate ~now ~prefix routes in
      let expected = Reference.validator reference ~now ~prefix routes in
      List.equal ( == ) kept expected
      && List.equal alarm_equal (D.alarms detector) (Reference.alarms reference)
      && !calls_made = reference.Reference.verify_calls)
    calls

let prop_matches_reference =
  Testutil.qtest ~count:500 "detector agrees with the list-based reference"
    sequence_gen
    (fun seq ->
      let shared =
        Array.map (fun l -> Moas.Moas_list.encode (Asn.Set.of_list l)) lists_pool
      in
      agree ~check_self_consistency:seq.check_self_consistency
        ~with_verifier:seq.with_verifier
        (List.map
           (fun c ->
             ( prefixes.(c.prefix),
               c.at,
               List.map (materialise_route shared prefixes.(c.prefix)) c.routes ))
           seq.calls))

(* More distinct community sets than the decode memo holds, each seen
   several times in a cycle, so that entries are evicted and decoded
   again; every route carries an AS-set list of its own. *)
let test_memo_overflow () =
  let distinct = 100 in
  let sets =
    Array.init distinct (fun i ->
        Moas.Moas_list.encode (Asn.Set.of_list [ 1 + (i mod 7); 10 + i ]))
  in
  let route i from =
    {
      (Testutil.route ~from [ from; 1 + (i mod 7) ]) with
      Bgp.Route.communities = sets.(i);
    }
  in
  let calls =
    List.init (3 * distinct) (fun k ->
        let i = k mod distinct and j = (k * 37) mod distinct in
        (prefixes.(k mod 2), float_of_int k, [ route i 2; route j 3; route i 4 ]))
  in
  List.iter
    (fun (check_self_consistency, with_verifier) ->
      Alcotest.(check bool)
        (Printf.sprintf "agrees (self-check %b, verifier %b)" check_self_consistency
           with_verifier)
        true
        (agree ~check_self_consistency ~with_verifier calls))
    [ (true, true); (true, false); (false, true); (false, false) ]

let () =
  Alcotest.run "detector_diff"
    [
      ( "differential",
        [
          prop_matches_reference;
          Alcotest.test_case "more community sets than memo slots" `Quick
            test_memo_overflow;
        ] );
    ]
