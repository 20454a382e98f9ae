(** Binary radix trie keyed by {!Prefix.t}, supporting exact lookup and
    longest-prefix match.  This is the routing-table data structure used by
    the BGP engine's Loc-RIB and by the measurement pipeline's table dumps.

    The trie is immutable: every operation returns a new trie and shares
    structure with the old one, which makes snapshotting daily table dumps
    cheap. *)

type 'a t
(** A trie mapping prefixes to values of type ['a]. *)

val empty : 'a t
(** The empty trie. *)

val is_empty : 'a t -> bool
(** Whether the trie holds no binding. *)

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the binding for a prefix, if any; unused interior nodes are
    pruned so the structure stays proportional to the live bindings. *)

val find_opt : Prefix.t -> 'a t -> 'a option
(** Exact-match lookup. *)

val mem : Prefix.t -> 'a t -> bool
(** Exact-match membership. *)

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** [longest_match addr t] is the most specific bound prefix containing
    [addr], the forwarding semantics of an IP router. *)

val matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list
(** All bound prefixes containing [addr], most specific first. *)

val covered : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** [covered p t] lists bindings whose prefix is [p] or more specific
    (used to detect the sub-prefix hijacks of Section 4.3). *)

val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update p f t] adjusts the binding for [p] through [f], like
    [Map.update]. *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings as a list. *)

val cardinal : 'a t -> int
(** Number of bindings. *)

val of_list : (Prefix.t * 'a) list -> 'a t
(** Build from an association list (later bindings win). *)
