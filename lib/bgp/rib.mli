(** Routing information bases of one BGP speaker.

    The Adj-RIB-In stores the latest route received from each peer for each
    prefix; the Adj-RIB-Out the last UPDATE sent to each peer for each
    prefix; the Loc-RIB holds the selected best route per prefix.  All are
    plain data so tests can inspect them directly.

    They are laid out for the decision process, which runs once per
    UPDATE.  A prefix's state is one {!entry}, found with one
    balanced-tree lookup, holding:
    - the Adj-RIB-In, an array with one slot per session, so an UPDATE
      writes one slot whatever the number of peers; {!candidates} builds
      the candidate list from it only for a decision that scans;
    - the Adj-RIB-Out, an array with the same slots, so an export to one
      peer reads and writes one slot;
    - the Loc-RIB entry.
    The longest-match view {!loc_rib_trie} is derived on demand and cached
    until the next best-route change, so forwarding walks that run after
    convergence build it once per router and the decision process never
    builds it. *)

open Net

type t
(** Mutable RIB state of one speaker. *)

type entry
(** One prefix's Adj-RIB-In, Adj-RIB-Out and Loc-RIB entry. *)

val create : slots:int -> t
(** Empty RIBs with [slots] session slots per entry, numbered from 0.
    The numbering is the owner's: a router gives slot [i] to its [i]-th
    peer in increasing AS order, and the slots never change. *)

val entry : t -> Prefix.t -> entry
(** The prefix's entry, created empty (no route in, none sent, no best
    route) on first use. *)

val write_in : entry -> int -> Route.t option -> Route.t option
(** [write_in e slot route] makes [route] the Adj-RIB-In entry of the
    peer at [slot] ([None]: withdraw it) and returns the one it replaced:
    one slot write. *)

val candidates : entry -> Route.t list
(** The entry's Adj-RIB-In routes in slot order (peer-AS order for a
    router): a fresh list of the filled slots, O(slots). *)

val unheard : Update.t
(** The Adj-RIB-Out content of a slot to which nothing was announced
    since the entry was made or the session last went down. *)

val heard : entry -> int -> Update.t
(** The last UPDATE sent to the peer at the slot for the entry's prefix:
    an announcement of the route the peer holds from this speaker, or a
    withdrawal (or {!unheard}) when it holds none. *)

val set_heard : entry -> int -> Update.t -> unit
(** Record an UPDATE sent to the peer at the slot. *)

val entry_best : entry -> Route.t option
(** The entry's Loc-RIB route. *)

val install : t -> entry -> Route.t option -> unit
(** Make the option the entry's Loc-RIB route ([None]: clear it). *)

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
    until the next {!install} or {!clear}; the
    value is immutable, so a trie obtained earlier stays a valid
    snapshot. *)

val prefixes_in : t -> Prefix.Set.t
(** Prefixes that currently have at least one Adj-RIB-In candidate. *)

val clear : t -> unit
(** Drop every route — Adj-RIB-In, Adj-RIB-Out and Loc-RIB alike (router
    crash). *)

val flush_peer : t -> int -> Prefix.t list
(** The session at the slot went down: drop every Adj-RIB-In entry
    learned over it and forget what was sent over it, and return the
    prefixes that lost an Adj-RIB-In route, in ascending order.  It
    visits every prefix's entry once: O(prefixes), for the handful of
    prefixes a simulated router holds. *)
