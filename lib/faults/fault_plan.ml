open Net

type target = Link of Asn.t * Asn.t | Router of Asn.t

let link a b =
  if Asn.equal a b then invalid_arg "Fault_plan.link: self loop";
  Link (a, b)

let router asn = Router asn

let target_to_string = function
  | Link (a, b) ->
    Printf.sprintf "link %s-%s" (Asn.to_string a) (Asn.to_string b)
  | Router asn -> Printf.sprintf "router %s" (Asn.to_string asn)

type spec =
  | Fail of { target : target; at : float; duration : float option }
  | Flap of {
      target : target;
      start : float;
      period : float;
      down_for : float;
      until : float;
    }
  | Churn of {
      targets : target list;
      start : float;
      rate : float;
      mean_downtime : float;
      until : float;
    }
  | Impair of {
      a : Asn.t;
      b : Asn.t;
      at : float;
      duration : float option;
      impairment : Bgp.Network.impairment;
    }

type t = spec list

let empty = []
let union = ( @ )
let all = List.concat

let check_time name v =
  if v < 0.0 || Float.is_nan v then
    invalid_arg (Printf.sprintf "Fault_plan.%s: negative time" name)

let check_duration name = function
  | None -> ()
  | Some d ->
    if d <= 0.0 || Float.is_nan d then
      invalid_arg (Printf.sprintf "Fault_plan.%s: duration must be positive" name)

let fail ?duration ~at target =
  check_time "fail" at;
  check_duration "fail" duration;
  [ Fail { target; at; duration } ]

let flap ~start ~period ~down_for ~until target =
  check_time "flap" start;
  if down_for <= 0.0 || Float.is_nan down_for then
    invalid_arg "Fault_plan.flap: down_for must be positive";
  if period <= down_for || Float.is_nan period then
    invalid_arg "Fault_plan.flap: period must exceed down_for";
  if until < start then invalid_arg "Fault_plan.flap: until before start";
  [ Flap { target; start; period; down_for; until } ]

let churn ?(start = 0.0) ~rate ~mean_downtime ~until targets =
  check_time "churn" start;
  if rate <= 0.0 || Float.is_nan rate then
    invalid_arg "Fault_plan.churn: rate must be positive";
  if mean_downtime <= 0.0 || Float.is_nan mean_downtime then
    invalid_arg "Fault_plan.churn: mean_downtime must be positive";
  if until < start then invalid_arg "Fault_plan.churn: until before start";
  if targets = [] then invalid_arg "Fault_plan.churn: no targets";
  [ Churn { targets; start; rate; mean_downtime; until } ]

let impair ?duration ?loss ?duplicate ?jitter ~at a b =
  check_time "impair" at;
  check_duration "impair" duration;
  let impairment = Bgp.Network.impairment ?loss ?duplicate ?jitter () in
  [ Impair { a; b; at; duration; impairment } ]

let link_targets graph =
  List.map (fun (a, b) -> Link (a, b)) (Topology.As_graph.edges graph)

let targets t =
  List.concat_map
    (function
      | Fail { target; _ } | Flap { target; _ } -> [ target ]
      | Churn { targets; _ } -> targets
      | Impair { a; b; _ } -> [ Link (a, b) ])
    t

let size = List.length

let spec_to_string = function
  | Fail { target; at; duration } ->
    Printf.sprintf "fail %s @%g%s" (target_to_string target) at
      (match duration with
      | Some d -> Printf.sprintf " for %g" d
      | None -> "")
  | Flap { target; start; period; down_for; until } ->
    Printf.sprintf "flap %s @%g period %g down %g until %g"
      (target_to_string target) start period down_for until
  | Churn { targets; start; rate; mean_downtime; until } ->
    Printf.sprintf "churn over %d targets @%g rate %g/s downtime %g until %g"
      (List.length targets) start rate mean_downtime until
  | Impair { a; b; at; duration; impairment } ->
    Printf.sprintf
      "impair link %s-%s @%g%s loss %g dup %g jitter %g" (Asn.to_string a)
      (Asn.to_string b) at
      (match duration with
      | Some d -> Printf.sprintf " for %g" d
      | None -> "")
      impairment.Bgp.Network.loss impairment.Bgp.Network.duplicate
      impairment.Bgp.Network.jitter

let to_string t = String.concat "\n" (List.map spec_to_string t)
