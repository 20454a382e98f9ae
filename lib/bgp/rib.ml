open Net

(* One prefix's routing state at this speaker, kept together so that an
   UPDATE finds all of it with one lookup: the Adj-RIB-In (the latest
   route from each peer, at the peer's slot, and how many slots are
   filled), the Adj-RIB-Out (the last UPDATE sent to each peer, at the
   same slot) and the Loc-RIB entry, kept as the option {!best} returns.
   An UPDATE writes one Adj-RIB-In slot, an export to one peer one
   Adj-RIB-Out slot; the candidate list, in slot order, is built only
   for a decision that scans. *)
type entry = {
  ins : Route.t option array;
  mutable filled : int;
  outs : Update.t array;
  mutable best : Route.t option;
}

type t = {
  (* the number of slots of every entry *)
  slots : int;
  mutable entries : entry Prefix.Map.t;
  (* Loc-RIB cardinality, maintained incrementally: the decision process
     updates a size gauge on every best-route change and must not pay an
     O(n) walk for it *)
  mutable loc_count : int;
  (* the Loc-RIB as a longest-match trie, built on the first forwarding
     lookup and dropped by any best-route change *)
  mutable loc_trie : Route.t Prefix_trie.t option;
}

(* the Adj-RIB-Out content of a peer that holds no route from us *)
let unheard = Update.withdraw ~sender:(Asn.make 0) (Prefix.of_string "0.0.0.0/0")

let create ~slots =
  { slots; entries = Prefix.Map.empty; loc_count = 0; loc_trie = None }

let entry t prefix =
  match Prefix.Map.find prefix t.entries with
  | e -> e
  | exception Not_found ->
    let e =
      {
        ins = Array.make t.slots None;
        filled = 0;
        outs = Array.make t.slots unheard;
        best = None;
      }
    in
    t.entries <- Prefix.Map.add prefix e t.entries;
    e

let occupied = function Some _ -> 1 | None -> 0

let write_in e slot route =
  let previous = e.ins.(slot) in
  e.ins.(slot) <- route;
  e.filled <- e.filled + occupied route - occupied previous;
  previous

let rec cons_slots slots i acc =
  if i < 0 then acc
  else
    cons_slots slots (i - 1)
      (match slots.(i) with Some r -> r :: acc | None -> acc)

let candidates e = cons_slots e.ins (Array.length e.ins - 1) []

let heard e slot = e.outs.(slot)
let set_heard e slot update = e.outs.(slot) <- update

let entry_best e = e.best

let install t e best =
  (match (e.best, best) with
  | None, Some _ -> t.loc_count <- t.loc_count + 1
  | Some _, None -> t.loc_count <- t.loc_count - 1
  | _ -> ());
  e.best <- best;
  t.loc_trie <- None

let best t prefix =
  match Prefix.Map.find prefix t.entries with
  | e -> e.best
  | exception Not_found -> None

(* Prefix order is the trie's pre-order: a prefix precedes its
   subprefixes, and the zero branch precedes the one branch. *)
let best_bindings t =
  Prefix.Map.fold
    (fun p e acc -> match e.best with Some r -> (p, r) :: acc | None -> acc)
    t.entries []
  |> List.rev

let loc_rib_size t = t.loc_count

let loc_rib_trie t =
  match t.loc_trie with
  | Some trie -> trie
  | None ->
    let trie =
      Prefix.Map.fold
        (fun p e trie ->
          match e.best with Some r -> Prefix_trie.add p r trie | None -> trie)
        t.entries Prefix_trie.empty
    in
    t.loc_trie <- Some trie;
    trie

let prefixes_in t =
  Prefix.Map.fold
    (fun p e acc -> if e.filled > 0 then Prefix.Set.add p acc else acc)
    t.entries Prefix.Set.empty

let clear t =
  t.entries <- Prefix.Map.empty;
  t.loc_count <- 0;
  t.loc_trie <- None

(* A teardown visits every prefix's entry once.  The simulations here
   hold a handful of prefixes per router (a victim prefix, its
   attackers' subprefixes, an aggregate). *)
let flush_peer t slot =
  Prefix.Map.fold
    (fun prefix e acc ->
      e.outs.(slot) <- unheard;
      match e.ins.(slot) with
      | Some _ ->
        e.ins.(slot) <- None;
        e.filled <- e.filled - 1;
        prefix :: acc
      | None -> acc)
    t.entries []
  |> List.rev
