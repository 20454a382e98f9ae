open Net

type rdata = A of Ipv4.t | Ns of Domain.t | Moasrr of Asn.Set.t

type rr = { name : Domain.t; ttl : int; rdata : rdata }

type t = { apex : Domain.t; by_name : rr list Domain.Map.t }

let create ~apex = { apex; by_name = Domain.Map.empty }

let add t rr =
  if not (Domain.is_suffix ~suffix:t.apex rr.name) then
    invalid_arg
      (Printf.sprintf "Zone.add: %s outside zone %s"
         (Domain.to_string rr.name)
         (Domain.to_string t.apex));
  {
    t with
    by_name =
      Domain.Map.update rr.name
        (fun existing -> Some (Option.value ~default:[] existing @ [ rr ]))
        t.by_name;
  }

let matches_qtype qtype rr =
  match (qtype, rr.rdata) with
  | `A, A _ | `Ns, Ns _ | `Moasrr, Moasrr _ -> true
  | _ -> false

type answer = Answer of rr list | Delegation of Domain.t * rr list | Name_error

(* the chain of names from the apex (exclusive) down to [name] (inclusive) *)
let names_towards t name =
  let apex_depth = List.length (Domain.labels t.apex) in
  let rec collect n acc =
    if List.length (Domain.labels n) <= apex_depth then acc
    else
      match Domain.parent n with
      | Some p -> collect p (n :: acc)
      | None -> acc
  in
  collect name []

let lookup t name ~qtype =
  if not (Domain.is_suffix ~suffix:t.apex name) then Name_error
  else begin
    (* a delegation point strictly above the query name wins *)
    let cut =
      List.find_opt
        (fun n ->
          (not (Domain.equal n name))
          &&
          match Domain.Map.find_opt n t.by_name with
          | Some rrs -> List.exists (matches_qtype `Ns) rrs
          | None -> false)
        (names_towards t name)
    in
    match cut with
    | Some cut_name ->
      let ns_records =
        List.filter (matches_qtype `Ns)
          (Option.value ~default:[] (Domain.Map.find_opt cut_name t.by_name))
      in
      (* glue: A records the zone happens to hold for the named servers *)
      let glue =
        List.concat_map
          (fun rr ->
            match rr.rdata with
            | Ns server -> (
              match Domain.Map.find_opt server t.by_name with
              | Some rrs -> List.filter (matches_qtype `A) rrs
              | None -> [])
            | A _ | Moasrr _ -> [])
          ns_records
      in
      Delegation (cut_name, ns_records @ glue)
    | None ->
      (match Domain.Map.find_opt name t.by_name with
      | Some rrs ->
        (match List.filter (matches_qtype qtype) rrs with
        | [] -> Answer [] (* name exists, no data of that type *)
        | found -> Answer found)
      | None -> Name_error)
  end
