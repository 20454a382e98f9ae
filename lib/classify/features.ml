open Net
module Corr = Collect.Correlator

type context = {
  cx_vantages : int;
  cx_span : int;
  cx_churn : int Prefix.Map.t;
  cx_relationships : Topology.Relationships.t option;
}

let churn_of_streams streams =
  List.fold_left
    (fun acc (_, events) ->
      Array.fold_left
        (fun acc (e : Stream.Monitor.event) ->
          Prefix.Map.update e.Stream.Monitor.prefix
            (fun n -> Some (1 + Option.value n ~default:0))
            acc)
        acc events)
    Prefix.Map.empty streams

let of_scenario ?relationships (s : Collect.Scenario.t) =
  {
    cx_vantages = List.length s.Collect.Scenario.s_specs;
    cx_span = max 1 s.Collect.Scenario.s_end_time;
    cx_churn = churn_of_streams s.Collect.Scenario.s_streams;
    cx_relationships = relationships;
  }

let names =
  [|
    "start_frac";
    "duration_frac";
    "days";
    "bucket";
    "recurrence";
    "visibility_frac";
    "max_origins";
    "origins";
    "churn_rate";
    "relation";
    "list_clean";
    "still_open";
  |]

let dim = Array.length names

let relation_class cx origins =
  match cx.cx_relationships with
  | None -> 0.
  | Some rel ->
    let pairs =
      let os = Asn.Set.elements origins in
      List.concat_map
        (fun a -> List.filter_map (fun b ->
             if Asn.compare a b < 0 then Some (a, b) else None) os)
        os
    in
    let rank (a, b) =
      match Topology.Relationships.view rel ~self:a ~neighbor:b with
      | Some (Topology.Relationships.Customer | Topology.Relationships.Provider)
        -> 2
      | Some Topology.Relationships.Peer -> 1
      | None -> 0
    in
    float_of_int (List.fold_left (fun acc p -> max acc (rank p)) 0 pairs)

let extract cx (e : Corr.entry) =
  let span = float_of_int (max 1 cx.cx_span) in
  let ended = Option.value e.Corr.x_ended ~default:cx.cx_span in
  let duration = float_of_int (max 0 (ended - e.Corr.x_started)) in
  let bucket =
    match
      Stream.Monitor.bucket_of_days Stream.Monitor.default_config e.Corr.x_days
    with
    | Stream.Monitor.Short -> 0.
    | Stream.Monitor.Medium -> 1.
    | Stream.Monitor.Long -> 2.
  in
  let churn =
    match Prefix.Map.find_opt e.Corr.x_prefix cx.cx_churn with
    | Some n -> float_of_int n /. (span /. 1000.)
    | None -> 0.
  in
  [|
    float_of_int e.Corr.x_started /. span;
    duration /. span;
    float_of_int e.Corr.x_days;
    bucket;
    float_of_int e.Corr.x_seq;
    float_of_int (Corr.visibility e) /. float_of_int (max 1 cx.cx_vantages);
    float_of_int e.Corr.x_max_origins;
    float_of_int (Asn.Set.cardinal e.Corr.x_origins);
    churn;
    relation_class cx e.Corr.x_origins;
    (if e.Corr.x_clean then 1. else 0.);
    (match e.Corr.x_ended with None -> 1. | Some _ -> 0.);
  |]
