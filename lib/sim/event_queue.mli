(** Priority queue of timestamped events, the heart of the discrete-event
    engine.  Ties on the timestamp are broken by insertion order, which
    makes every simulation fully deterministic. *)

type 'a t
(** A mutable queue of events carrying payloads of type ['a]. *)

val create : unit -> 'a t
(** A fresh empty queue. *)

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

val min_time : 'a t -> float
(** Timestamp of the earliest event: the allocation-free {!peek_time}
    for a caller that has checked {!is_empty}.
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove the earliest event and return its payload, in the order of
    {!pop}; read its time with {!min_time} first.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Drop all pending events. *)
