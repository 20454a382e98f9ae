open Net

(* One prefix's Adj-RIB-In: the latest route from each peer, at the
   peer's slot, and how many slots are filled.  An UPDATE writes one
   slot; the candidate list, in slot order, is built only for a decision
   that scans. *)
type entry = { mutable slots : Route.t option array; mutable filled : int }

type t = {
  (* every AS given an Adj-RIB-In slot, in increasing order: the slot
     order of every entry.  A slot outlives its peer's session, so a
     session that comes back finds its slot; only a peer never seen
     before realigns the entries. *)
  mutable peers : Asn.t array;
  mutable adj_in : entry Prefix.Map.t;
  (* each best route kept as the option {!best} returns, so that the
     lookup, which runs once per UPDATE, allocates nothing *)
  mutable loc : Route.t option Prefix.Map.t;
  (* Loc-RIB cardinality, maintained incrementally: the decision process
     updates a size gauge on every best-route change and must not pay an
     O(n) walk for it *)
  mutable loc_count : int;
  (* the Loc-RIB as a longest-match trie, built on the first forwarding
     lookup and dropped by any best-route change *)
  mutable loc_trie : Route.t Prefix_trie.t option;
}

let create () =
  {
    peers = [||];
    adj_in = Prefix.Map.empty;
    loc = Prefix.Map.empty;
    loc_count = 0;
    loc_trie = None;
  }

(* the peer's slot, or -1 without one *)
let rec find_slot peers (peer : Asn.t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let at = peers.(mid) in
    if at = peer then mid
    else if at < peer then find_slot peers peer (mid + 1) hi
    else find_slot peers peer lo mid

let slot t peer = find_slot t.peers peer 0 (Array.length t.peers)

(* [ids] merged into the slot order; each entry's routes move to their
   peers' new slots.  The first call, on an empty RIB, adopts [ids]
   itself. *)
let add_peers t ids =
  let old = t.peers in
  if Array.length old = 0 then t.peers <- ids
  else if not (Array.for_all (fun peer -> slot t peer >= 0) ids) then begin
    let merged =
      Array.of_list
        (Asn.Set.elements
           (Array.fold_right Asn.Set.add ids (Asn.Set.of_seq (Array.to_seq old))))
    in
    let moved =
      Array.map (fun peer -> find_slot merged peer 0 (Array.length merged)) old
    in
    Prefix.Map.iter
      (fun _ e ->
        let slots = Array.make (Array.length merged) None in
        Array.iteri (fun i route -> slots.(moved.(i)) <- route) e.slots;
        e.slots <- slots)
      t.adj_in;
    t.peers <- merged
  end

let occupied = function Some _ -> 1 | None -> 0

(* The lookups below run once per UPDATE; [find] allocates no option. *)
let rec replace_in t ~peer prefix route =
  match slot t peer with
  | -1 ->
    (match route with
    | None -> None
    | Some _ ->
      add_peers t [| peer |];
      replace_in t ~peer prefix route)
  | i ->
    (match Prefix.Map.find prefix t.adj_in with
    | e ->
      let previous = e.slots.(i) in
      e.slots.(i) <- route;
      e.filled <- e.filled + occupied route - occupied previous;
      previous
    | exception Not_found ->
      if Option.is_some route then begin
        let slots = Array.make (Array.length t.peers) None in
        slots.(i) <- route;
        t.adj_in <- Prefix.Map.add prefix { slots; filled = 1 } t.adj_in
      end;
      None)

let rec cons_slots slots i acc =
  if i < 0 then acc
  else
    cons_slots slots (i - 1)
      (match slots.(i) with Some r -> r :: acc | None -> acc)

let routes_in t prefix =
  match Prefix.Map.find prefix t.adj_in with
  | e -> cons_slots e.slots (Array.length e.slots - 1) []
  | exception Not_found -> []

let set_best t route =
  let prefix = route.Route.prefix in
  if not (Prefix.Map.mem prefix t.loc) then t.loc_count <- t.loc_count + 1;
  t.loc <- Prefix.Map.add prefix (Some route) t.loc;
  t.loc_trie <- None

let clear_best t prefix =
  if Prefix.Map.mem prefix t.loc then begin
    t.loc_count <- t.loc_count - 1;
    t.loc <- Prefix.Map.remove prefix t.loc;
    t.loc_trie <- None
  end

let best t prefix =
  match Prefix.Map.find prefix t.loc with
  | best -> best
  | exception Not_found -> None

(* Prefix order is the trie's pre-order: a prefix precedes its
   subprefixes, and the zero branch precedes the one branch. *)
let best_bindings t =
  Prefix.Map.fold (fun p best acc -> (p, Option.get best) :: acc) t.loc [] |> List.rev

let loc_rib_size t = t.loc_count

let loc_rib_trie t =
  match t.loc_trie with
  | Some trie -> trie
  | None ->
    let trie =
      Prefix.Map.fold (fun p best trie -> Prefix_trie.add p (Option.get best) trie) t.loc
        Prefix_trie.empty
    in
    t.loc_trie <- Some trie;
    trie

let prefixes_in t =
  Prefix.Map.fold
    (fun p e acc -> if e.filled > 0 then Prefix.Set.add p acc else acc)
    t.adj_in Prefix.Set.empty

(* the slot order survives: it is the session layout, not RIB content *)
let clear t =
  t.adj_in <- Prefix.Map.empty;
  t.loc <- Prefix.Map.empty;
  t.loc_count <- 0;
  t.loc_trie <- None

(* A teardown visits every prefix's entry once.  The simulations here
   hold a handful of prefixes per router (a victim prefix, its
   attackers' subprefixes, an aggregate). *)
let flush_peer t ~peer =
  match slot t peer with
  | -1 -> []
  | i ->
    Prefix.Map.fold
      (fun prefix e acc ->
        match e.slots.(i) with
        | Some _ ->
          e.slots.(i) <- None;
          e.filled <- e.filled - 1;
          prefix :: acc
        | None -> acc)
      t.adj_in []
    |> List.rev
