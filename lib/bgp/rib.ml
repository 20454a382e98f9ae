open Net

(* One prefix's Adj-RIB-In: the latest route from each peer, in
   ascending order of the peer it was learned from.  A route's
   [learned_from] is its peer, so the list is the whole entry; it is the
   decision process's candidate list as it stands, so a decision reads it
   without building one, and an UPDATE rebuilds the cells up to its
   peer. *)
type candidates = { mutable routes : Route.t list }

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
}

let create () =
  { adj_in = Prefix.Map.empty; loc = Prefix.Map.empty; loc_count = 0; loc_trie = None }

let peer_of r = r.Route.learned_from

(* [route] in place of its peer's entry, or inserted in peer order *)
let rec put route = function
  | r :: rest as routes ->
    let c = Asn.compare (peer_of r) (peer_of route) in
    if c < 0 then r :: put route rest else if c = 0 then route :: rest else route :: routes
  | [] -> [ route ]

(* the list without [peer]'s entry; the list itself when it has none *)
let rec drop peer = function
  | r :: rest as routes ->
    let c = Asn.compare (peer_of r) peer in
    if c < 0 then
      let kept = drop peer rest in
      if kept == rest then routes else r :: kept
    else if c = 0 then rest
    else routes
  | [] -> []

(* The lookups below run once or twice per UPDATE; [find] allocates no
   option. *)
let set_in t route =
  let prefix = route.Route.prefix in
  match Prefix.Map.find prefix t.adj_in with
  | c -> c.routes <- put route c.routes
  | exception Not_found ->
    t.adj_in <- Prefix.Map.add prefix { routes = [ route ] } t.adj_in

let withdraw_in t ~peer prefix =
  match Prefix.Map.find prefix t.adj_in with
  | c ->
    (match drop peer c.routes with
    | [] -> t.adj_in <- Prefix.Map.remove prefix t.adj_in
    | routes -> c.routes <- routes)
  | exception Not_found -> ()

let routes_in t prefix =
  match Prefix.Map.find prefix t.adj_in with
  | c -> c.routes
  | exception Not_found -> []

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
  t.loc_trie <- None

(* A teardown scans every prefix's entry.  The simulations here hold a
   handful of prefixes per router (a victim prefix, its attackers'
   subprefixes, an aggregate), so a per-peer index would cost every first
   announcement more than it saves the rare teardown. *)
let flush_peer t ~peer =
  let affected =
    Prefix.Map.fold
      (fun prefix c acc ->
        if List.exists (fun r -> Asn.equal (peer_of r) peer) c.routes then prefix :: acc
        else acc)
      t.adj_in []
    |> List.rev
  in
  List.iter (fun prefix -> withdraw_in t ~peer prefix) affected;
  affected
