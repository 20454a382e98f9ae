open Net

type server = { name : Domain.t; address : Ipv4.t; zone : Zone.t }

type config = {
  roots : server list;
  servers : server list;
  reach : Ipv4.t -> bool;
  max_referrals : int;
}

let config ?(max_referrals = 16) ?(reach = fun _ -> true) ~roots ~servers () =
  if roots = [] then invalid_arg "Resolver.config: no root servers";
  { roots; servers; reach; max_referrals }

type qtype = [ `A | `Ns | `Moasrr ]

type cache_entry = { expires : float; records : Zone.rr list }

type t = {
  cfg : config;
  cache : (Domain.t * qtype, cache_entry) Hashtbl.t;
  mutable queries : int;
}

let create cfg = { cfg; cache = Hashtbl.create 64; queries = 0 }

type error = Unreachable of Domain.t | Nxdomain | No_data | Referral_limit

let server_by_name t name =
  List.find_opt
    (fun s -> Domain.equal s.name name)
    (t.cfg.roots @ t.cfg.servers)

let min_ttl records =
  List.fold_left (fun acc rr -> min acc rr.Zone.ttl) max_int records

let cache_store t ~now key records =
  if records <> [] then
    Hashtbl.replace t.cache key
      { expires = now +. float_of_int (min_ttl records); records }

let cache_find t ~now key =
  match Hashtbl.find_opt t.cache key with
  | Some entry when entry.expires > now -> Some entry.records
  | Some _ ->
    Hashtbl.remove t.cache key;
    None
  | None -> None

(* contact one server: None when unreachable *)
let ask t server name ~qtype =
  if not (t.cfg.reach server.address) then None
  else begin
    t.queries <- t.queries + 1;
    Some (Zone.lookup server.zone name ~qtype)
  end

(* candidate servers for a delegation: resolve NS targets through glue or
   the global server directory (a simplification standing in for separate
   A-record resolution) *)
let servers_of_delegation t rrs =
  List.filter_map
    (fun rr ->
      match rr.Zone.rdata with
      | Zone.Ns server_name -> server_by_name t server_name
      | Zone.A _ | Zone.Moasrr _ -> None)
    rrs

let resolve t ~now name ~qtype =
  let key = (name, (qtype :> qtype)) in
  match cache_find t ~now key with
  | Some records -> Ok records
  | None ->
    let rec chase candidates budget =
      if budget < 0 then Error Referral_limit
      else begin
        (* try each candidate server in order; unreachable ones are skipped
           the way a real resolver fails over *)
        let rec try_servers = function
          | [] -> Error (Unreachable name)
          | server :: rest ->
            (match ask t server name ~qtype with
            | None -> try_servers rest
            | Some (Zone.Answer []) -> Error No_data
            | Some (Zone.Answer records) ->
              cache_store t ~now key records;
              Ok records
            | Some (Zone.Delegation (_, rrs)) ->
              (match servers_of_delegation t rrs with
              | [] -> Error (Unreachable name)
              | next -> chase next (budget - 1))
            | Some Zone.Name_error -> Error Nxdomain)
        in
        try_servers candidates
      end
    in
    chase t.cfg.roots t.cfg.max_referrals

let lookup_moasrr t ~now prefix =
  let name = Domain.reverse_of_prefix prefix in
  match resolve t ~now name ~qtype:`Moasrr with
  | Ok records ->
    let origins =
      List.fold_left
        (fun acc rr ->
          match rr.Zone.rdata with
          | Zone.Moasrr origins -> Asn.Set.union origins acc
          | Zone.A _ | Zone.Ns _ -> acc)
        Asn.Set.empty records
    in
    if Asn.Set.is_empty origins then Ok None else Ok (Some origins)
  | Error No_data -> Ok None
  | Error e -> Error e

let queries_sent t = t.queries
