(** Priority queue of timestamped events, the heart of the discrete-event
    engine.  Ties on the timestamp are broken by insertion order, which
    makes every simulation fully deterministic. *)

type 'a t
(** A mutable queue of events carrying payloads of type ['a]. *)

val create : filler:'a -> unit -> 'a t
(** A fresh empty queue.  Every payload slot the queue holds outside its
    pending events is set to [filler], so a popped payload is
    collectable as soon as the caller drops it; give a long-lived value
    (a top-level constant), which also lets the arrays grow without
    forcing a minor collection. *)

val is_empty : 'a t -> bool
(** Whether no event is pending. *)

val length : 'a t -> int
(** Number of pending events. *)

val push : 'a t -> time:float -> 'a -> unit
(** Schedule a payload at an absolute time.
    @raise Invalid_argument on a NaN time. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event; [None] when empty.  Among equal
    times, the event pushed first is returned first (FIFO). *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest event without removing it. *)

val push_after : 'a t -> float ref -> delay:float -> 'a -> unit
(** [push_after t clock ~delay payload] is [push t ~time:(!clock +.
    delay) payload], computed without boxing the time: what an engine
    whose clock is [clock] calls once per scheduled event. *)

val min_time_exceeds : 'a t -> float -> bool
(** Whether the earliest event's time is above the limit, for a caller
    that has checked {!is_empty}.
    @raise Invalid_argument on an empty queue. *)

val pop_min_into : 'a t -> float ref -> 'a
(** Remove the earliest event, in the order of {!pop}, store its time in
    the ref and return its payload: {!pop} without allocation.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Drop all pending events. *)

val transfer : from:'a t -> 'a t -> unit
(** [transfer ~from t] moves the arrays of the empty queue [from] into
    the empty queue [t] when they are larger than [t]'s, leaving [from]
    without any: [t] then grows only past [from]'s high-water mark.
    @raise Invalid_argument when either queue has pending events. *)
