open Net

(* One prefix's Adj-RIB-In: the peers that sent a route and their routes,
   two parallel lists in ascending peer order.  The route list is the
   decision process's candidate list as it stands, so a decision reads it
   without building one; an UPDATE rebuilds the cells up to its peer. *)
type candidates = { mutable peers : Asn.t list; mutable routes : Route.t list }

type t = {
  mutable adj_in : candidates Prefix.Map.t;
  mutable loc : Route.t Prefix.Map.t;
  (* Loc-RIB cardinality, maintained incrementally: the decision process
     updates a size gauge on every best-route change and must not pay an
     O(n) walk for it *)
  mutable loc_count : int;
  (* the Loc-RIB as a longest-match trie, built on the first forwarding
     lookup and dropped by any best-route change *)
  mutable loc_trie : Route.t Prefix_trie.t option;
  (* inverted Adj-RIB-In index: the prefixes each peer currently
     contributes a candidate for, so a session loss flushes only that
     peer's entries instead of scanning every prefix *)
  mutable by_peer : Prefix.Set.t Asn.Map.t;
}

let create () =
  {
    adj_in = Prefix.Map.empty;
    loc = Prefix.Map.empty;
    loc_count = 0;
    loc_trie = None;
    by_peer = Asn.Map.empty;
  }

(* [peers] and [routes] below are one prefix's parallel lists *)

let rec mem_peer peer = function
  | [] -> false
  | p :: peers -> Asn.equal p peer || mem_peer peer peers

let rec replace_route peer route peers routes =
  match (peers, routes) with
  | p :: peers, r :: routes ->
    if Asn.equal p peer then route :: routes
    else r :: replace_route peer route peers routes
  | _ -> invalid_arg "Rib: peer and route lists out of step"

let rec insert_peer peer = function
  | p :: peers when Asn.compare p peer < 0 -> p :: insert_peer peer peers
  | peers -> peer :: peers

let rec insert_route peer route peers routes =
  match (peers, routes) with
  | p :: peers, r :: routes when Asn.compare p peer < 0 ->
    r :: insert_route peer route peers routes
  | _ -> route :: routes

let rec remove_peer peer = function
  | [] -> []
  | p :: peers -> if Asn.equal p peer then peers else p :: remove_peer peer peers

let rec remove_route peer peers routes =
  match (peers, routes) with
  | p :: peers, r :: routes ->
    if Asn.equal p peer then routes else r :: remove_route peer peers routes
  | _ -> routes

let index_peer t ~peer prefix =
  t.by_peer <-
    Asn.Map.update peer
      (function
        | Some prefixes -> Some (Prefix.Set.add prefix prefixes)
        | None -> Some (Prefix.Set.singleton prefix))
      t.by_peer

(* a replacement from a peer already indexed for the prefix leaves the
   peer list and [by_peer] as they are *)
let set_in t ~peer route =
  let prefix = route.Route.prefix in
  match Prefix.Map.find_opt prefix t.adj_in with
  | Some c ->
    if mem_peer peer c.peers then c.routes <- replace_route peer route c.peers c.routes
    else begin
      c.routes <- insert_route peer route c.peers c.routes;
      c.peers <- insert_peer peer c.peers;
      index_peer t ~peer prefix
    end
  | None ->
    t.adj_in <- Prefix.Map.add prefix { peers = [ peer ]; routes = [ route ] } t.adj_in;
    index_peer t ~peer prefix

let withdraw_in t ~peer prefix =
  match Prefix.Map.find_opt prefix t.adj_in with
  | Some c when mem_peer peer c.peers ->
    (match remove_peer peer c.peers with
    | [] -> t.adj_in <- Prefix.Map.remove prefix t.adj_in
    | peers ->
      c.routes <- remove_route peer c.peers c.routes;
      c.peers <- peers);
    t.by_peer <-
      Asn.Map.update peer
        (function
          | Some prefixes ->
            let prefixes = Prefix.Set.remove prefix prefixes in
            if Prefix.Set.is_empty prefixes then None else Some prefixes
          | None -> None)
        t.by_peer
  | Some _ | None -> ()

let routes_in t prefix =
  match Prefix.Map.find_opt prefix t.adj_in with
  | Some c -> c.routes
  | None -> []

let fold_routes_in t prefix f init = List.fold_left f init (routes_in t prefix)

let peers_with_route t prefix =
  match Prefix.Map.find_opt prefix t.adj_in with
  | Some c -> c.peers
  | None -> []

let set_best t route =
  let prefix = route.Route.prefix in
  if not (Prefix.Map.mem prefix t.loc) then t.loc_count <- t.loc_count + 1;
  t.loc <- Prefix.Map.add prefix route t.loc;
  t.loc_trie <- None

let clear_best t prefix =
  if Prefix.Map.mem prefix t.loc then begin
    t.loc_count <- t.loc_count - 1;
    t.loc <- Prefix.Map.remove prefix t.loc;
    t.loc_trie <- None
  end

let best t prefix = Prefix.Map.find_opt prefix t.loc

(* Prefix order is the trie's pre-order: a prefix precedes its
   subprefixes, and the zero branch precedes the one branch. *)
let best_bindings t = Prefix.Map.bindings t.loc

let loc_rib_size t = t.loc_count

let loc_rib_trie t =
  match t.loc_trie with
  | Some trie -> trie
  | None ->
    let trie = Prefix.Map.fold Prefix_trie.add t.loc Prefix_trie.empty in
    t.loc_trie <- Some trie;
    trie

let prefixes_in t =
  Prefix.Map.fold (fun p _ acc -> Prefix.Set.add p acc) t.adj_in Prefix.Set.empty

let clear t =
  t.adj_in <- Prefix.Map.empty;
  t.loc <- Prefix.Map.empty;
  t.loc_count <- 0;
  t.loc_trie <- None;
  t.by_peer <- Asn.Map.empty

let flush_peer t ~peer =
  let affected =
    match Asn.Map.find_opt peer t.by_peer with
    | Some prefixes -> Prefix.Set.elements prefixes
    | None -> []
  in
  List.iter (fun prefix -> withdraw_in t ~peer prefix) affected;
  affected
