(** Routing information bases of one BGP speaker.

    The Adj-RIB-In stores the latest route received from each peer for each
    prefix; the Loc-RIB holds the selected best route per prefix.  Both are
    plain data so tests can inspect them directly.

    Both are laid out for the decision process, which runs once per
    UPDATE:
    - a prefix's Adj-RIB-In is an array with one slot per peer, in
      increasing peer-AS order, so an UPDATE writes one slot whatever the
      number of peers; {!routes_in} builds the candidate list from it
      only for a decision that scans;
    - the Loc-RIB is a prefix map: {!best}, {!set_best} and {!clear_best}
      are one balanced-tree operation each.  The longest-match view
      {!loc_rib_trie} is derived from it on demand and cached until the
      next best-route change, so forwarding walks that run after
      convergence build it once per router and the decision process never
      builds it. *)

open Net

type t
(** Mutable RIB state of one speaker. *)

val create : unit -> t
(** Empty RIBs. *)

val add_peers : t -> Asn.t array -> unit
(** Give each AS of the array (increasing, not mutated afterwards) an
    Adj-RIB-In slot.  A slot outlives the session: {!clear} and
    {!flush_peer} keep it.  Realigning the stored entries costs
    O(prefixes x slots), paid only when an AS gets its first slot after
    routes are stored. *)

val replace_in : t -> peer:Asn.t -> Prefix.t -> Route.t option -> Route.t option
(** [replace_in t ~peer prefix route] makes [route] [peer]'s entry for
    [prefix] ([None]: withdraw it) and returns the entry it replaced.
    One slot write, after an O(log prefixes) and an O(log peers) lookup
    that allocate nothing; a peer without a slot gets one. *)

val routes_in : t -> Prefix.t -> Route.t list
(** All Adj-RIB-In candidates for a prefix, ordered by peer AS number:
    a fresh list of the filled slots, O(peers). *)

val set_best : t -> Route.t -> unit
(** Install a best route in the Loc-RIB. *)

val clear_best : t -> Prefix.t -> unit
(** Remove the Loc-RIB entry for a prefix. *)

val best : t -> Prefix.t -> Route.t option
(** Selected route for a prefix, if any. *)

val best_bindings : t -> (Prefix.t * Route.t) list
(** Loc-RIB contents in {!Net.Prefix.compare} order, which is the
    pre-order of {!loc_rib_trie}: a prefix before its subprefixes. *)

val loc_rib_size : t -> int
(** Number of Loc-RIB entries, maintained incrementally — O(1), equal to
    [List.length (best_bindings t)]. *)

val loc_rib_trie : t -> Route.t Net.Prefix_trie.t
(** The Loc-RIB as a prefix trie (longest-match forwarding view).  Built
    on the first call after a best-route change and returned from a cache
    until the next {!set_best}, {!clear_best} or {!clear}; the value is
    immutable, so a trie obtained earlier stays a valid snapshot. *)

val prefixes_in : t -> Prefix.Set.t
(** Prefixes that currently have at least one Adj-RIB-In candidate. *)

val clear : t -> unit
(** Drop every route — Adj-RIB-In and Loc-RIB alike (router crash). *)

val flush_peer : t -> peer:Asn.t -> Prefix.t list
(** Drop every Adj-RIB-In entry learned from [peer] (session loss) and
    return the prefixes that were affected, in ascending order.  It
    visits every prefix's entry once: O(prefixes), for the handful of
    prefixes a simulated router holds. *)
