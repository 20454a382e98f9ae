(** Dense interning: map values with an injective int key ({!Prefix.to_key},
    {!Asn.to_int}) to consecutive ids [0, 1, 2, ...] in first-seen order.

    Hot loops that would otherwise box structural keys — per-prefix state
    tables, session views, shard partitions — index arrays and int-keyed
    hash tables by the dense id instead: lookups compare unboxed ints and
    the hit path allocates nothing.

    Ids are stable for the lifetime of the table (an interner never
    forgets), so an id taken once stays valid; a table rebuilt from a
    snapshot re-derives ids in snapshot order, which is why ids are an
    in-memory handle and never serialised.  Laws, property-tested:
    [of_id t (id t v)] is [v] (up to key equality), and
    [id t a = id t b] iff [key a = key b]. *)

type 'a t

val id : 'a t -> 'a -> int
(** The dense id of a value, interning it first if unseen.  Ids count up
    from 0 in first-intern order.  Allocation-free when already interned. *)

val find : 'a t -> 'a -> int
(** The dense id of a value, or [-1] if it was never interned.  Never
    interns; allocation-free (no option boxing). *)

val of_id : 'a t -> int -> 'a
(** The value interned under an id.
    @raise Invalid_argument outside [0, count). *)

val count : 'a t -> int
(** Number of distinct values interned so far; ids live in [0, count). *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visit every (id, value) pair in id order. *)

val prefixes : ?size:int -> unit -> Prefix.t t
(** An interner over prefixes, keyed by {!Prefix.to_key}. *)

val asns : ?size:int -> unit -> Asn.t t
(** An interner over AS numbers, keyed by {!Asn.to_int}. *)
