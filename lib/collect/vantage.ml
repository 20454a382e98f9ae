open Net
module M = Stream.Monitor

type spec = { v_name : string; v_peers : Asn.Set.t }

let spec ~name peers =
  if String.length name = 0 then invalid_arg "Vantage.spec: empty name";
  if peers = [] then invalid_arg "Vantage.spec: empty peer list";
  { v_name = name; v_peers = Asn.Set.of_list peers }

(* Session-view tables are keyed by packed ints rather than tuples:
   {!Prefix.to_key} is 38 bits and ASNs 16, so both composites fit an
   OCaml int and lookups hash an immediate instead of allocating and
   structurally hashing a tuple on every tap callback. *)
let last_key src prefix = (Asn.to_int src lsl 38) lor Prefix.to_key prefix
let po_key prefix origin = (Prefix.to_key prefix lsl 16) lor Asn.to_int origin

type t = {
  name : string;
  peers : Asn.Set.t;
  (* last (origin, advertised list) exported per (feed AS, prefix): the
     collector-session view that dedups the per-destination fan-out *)
  last : (int, Asn.t * Asn.Set.t option) Hashtbl.t;
  (* feeds currently announcing each (prefix, origin): the vantage emits
     origin-level transitions, so one feed re-routing away from an origin
     other feeds still carry retracts nothing — exactly the refcounted
     view a collector has of its peer set *)
  live : (int, int) Hashtbl.t;
  (* MOAS list last emitted per announced (prefix, origin) *)
  adv : (int, Asn.Set.t option) Hashtbl.t;
  mutable evs : M.event array; (* capture order; first [count] are live *)
  mutable count : int;
}

let name t = t.name
let event_count t = t.count
let events t = Array.sub t.evs 0 t.count
let streams vs = List.map (fun v -> (v.name, events v)) vs

let millis time = int_of_float (Float.round (time *. 1000.0))

(* registered lazily so a run that drops nothing exports no sample *)
let bump ?labels metrics name =
  Obs.Registry.Counter.incr (Obs.Registry.counter metrics ?labels name)

let push v ev =
  if v.count >= Array.length v.evs then begin
    let cap = max 64 (2 * Array.length v.evs) in
    let grown = Array.make cap ev in
    Array.blit v.evs 0 grown 0 v.count;
    v.evs <- grown
  end;
  v.evs.(v.count) <- ev;
  v.count <- v.count + 1

let record metrics v ~time ~src (update : Bgp.Update.t) =
  let time = millis time in
  let note () =
    if not (Obs.Registry.is_noop metrics) then
      bump metrics ~labels:[ ("vantage", v.name) ] "collect_events_total"
  in
  let emit action prefix =
    push v { M.time; peer = src; prefix; action };
    note ()
  in
  (* one feed stops carrying [origin]: retract only when it was the last *)
  let drop prefix origin =
    let key = po_key prefix origin in
    match Hashtbl.find_opt v.live key with
    | Some 1 ->
      Hashtbl.remove v.live key;
      Hashtbl.remove v.adv key;
      emit (M.Withdraw { origin }) prefix
    | Some n -> Hashtbl.replace v.live key (n - 1)
    | None -> ()
  in
  (* one feed starts (or keeps) carrying [origin] with [moas_list] *)
  let raise_origin prefix origin moas_list =
    let key = po_key prefix origin in
    match Hashtbl.find_opt v.live key with
    | None ->
      Hashtbl.replace v.live key 1;
      Hashtbl.replace v.adv key moas_list;
      emit (M.Announce { origin; moas_list }) prefix
    | Some n ->
      Hashtbl.replace v.live key (n + 1);
      if not (Option.equal Asn.Set.equal (Hashtbl.find v.adv key) moas_list)
      then begin
        Hashtbl.replace v.adv key moas_list;
        emit (M.Announce { origin; moas_list }) prefix
      end
  in
  match update.Bgp.Update.payload with
  | Bgp.Update.Announce route ->
    let prefix = route.Bgp.Route.prefix in
    let origin = Bgp.Route.origin_as ~self:src route in
    let moas_list = Moas.Moas_list.decode route.Bgp.Route.communities in
    let key = last_key src prefix in
    (match Hashtbl.find_opt v.last key with
    | Some (prev, prev_list) when Asn.equal prev origin ->
      (* same origin re-exported: a new event only if the list changed *)
      if not (Option.equal Asn.Set.equal prev_list moas_list) then begin
        Hashtbl.replace v.last key (origin, moas_list);
        let lk = po_key prefix origin in
        if not
             (Option.equal (Option.equal Asn.Set.equal)
                (Hashtbl.find_opt v.adv lk) (Some moas_list))
        then begin
          Hashtbl.replace v.adv lk moas_list;
          emit (M.Announce { origin; moas_list }) prefix
        end
      end
    | Some (prev, _) ->
      (* the feed switched its best route to another origin *)
      Hashtbl.replace v.last key (origin, moas_list);
      drop prefix prev;
      raise_origin prefix origin moas_list
    | None ->
      Hashtbl.add v.last key (origin, moas_list);
      raise_origin prefix origin moas_list)
  | Bgp.Update.Withdraw prefix -> (
    let key = last_key src prefix in
    match Hashtbl.find_opt v.last key with
    | Some (prev, _) ->
      Hashtbl.remove v.last key;
      drop prefix prev
    | None -> () (* a withdrawal for a route this session never carried *))

let attach ?(metrics = Obs.Registry.noop) network specs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.v_name then
        invalid_arg ("Vantage.attach: duplicate vantage " ^ s.v_name);
      Hashtbl.add seen s.v_name ();
      Asn.Set.iter
        (fun a ->
          if not (Topology.As_graph.mem_node (Bgp.Network.graph network) a) then
            invalid_arg
              (Printf.sprintf "Vantage.attach: %s is not in the topology"
                 (Asn.to_string a)))
        s.v_peers)
    specs;
  let vantages =
    List.map
      (fun s ->
        {
          name = s.v_name;
          peers = s.v_peers;
          last = Hashtbl.create 64;
          live = Hashtbl.create 64;
          adv = Hashtbl.create 64;
          evs = [||];
          count = 0;
        })
      specs
  in
  (* peer AS -> interested vantages, precomputed so the tap is O(listeners) *)
  let by_peer = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Asn.Set.iter
        (fun a ->
          Hashtbl.replace by_peer a
            (match Hashtbl.find_opt by_peer a with
            | Some vs -> vs @ [ v ]
            | None -> [ v ]))
        v.peers)
    vantages;
  Bgp.Network.set_update_tap network
    (Some
       (fun ~time ~src ~dst:_ update ->
         match Hashtbl.find_opt by_peer src with
         | Some vs -> List.iter (fun v -> record metrics v ~time ~src update) vs
         | None ->
           if not (Obs.Registry.is_noop metrics) then
             bump metrics "collect_updates_dropped"));
  vantages

(* ------------------------------------------------------------------ *)
(* Archive replay splitting *)

let replay ?(coverage = 1.0) ~vantages ~seed batches =
  if vantages < 1 then invalid_arg "Vantage.replay: need at least one vantage";
  if coverage < 0.0 || coverage > 1.0 then
    invalid_arg "Vantage.replay: coverage out of [0,1]";
  let rng = Mutil.Rng.create ~seed in
  let accs = Array.make vantages [] in
  Array.iter
    (fun (b : Stream.Source.batch) ->
      Array.iter
        (fun (ev : M.event) ->
          (* the forced vantage guarantees losslessness of the union *)
          let forced =
            (Prefix.hash ev.M.prefix + Asn.to_int ev.M.peer + ev.M.time)
            land max_int mod vantages
          in
          for i = 0 to vantages - 1 do
            (* one draw per (event, vantage), in a fixed order: the split is
               a pure function of the seed *)
            let drawn = coverage >= 1.0 || Mutil.Rng.chance rng coverage in
            if drawn || i = forced then accs.(i) <- ev :: accs.(i)
          done)
        b.Stream.Source.events)
    batches;
  List.init vantages (fun i ->
      (Printf.sprintf "rv%02d" i, Array.of_list (List.rev accs.(i))))
