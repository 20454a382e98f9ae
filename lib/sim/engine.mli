(** Discrete-event simulation engine in the style of SSFnet's scheduler:
    handlers schedule further events; the engine runs events in timestamp
    order until the queue drains (quiescence) or a limit is hit. *)

type t
(** An engine instance with its own clock and event queue. *)

type handler = t -> unit
(** An event is an arbitrary callback; it may schedule more events. *)

val create : ?metrics:Obs.Registry.t -> ?wall_clock:(unit -> float) -> unit -> t
(** A fresh engine with the clock at 0.  [metrics] (default
    {!Obs.Registry.noop}) receives the engine's instrumentation:

    - counter [sim_events_executed] — events executed across runs;
    - gauge [sim_queue_depth_hwm] — pending-queue high-water mark;
    - gauge [sim_run_wall_s] — accumulated wall time spent inside {!run};
    - histogram [sim_wall_s_per_10k_events] — wall time per block of
      10 000 executed events.

    With the no-op registry the run loop pays nothing (and never reads
    [wall_clock], which defaults to [Sys.time]). *)

val now : t -> float
(** Current simulation time. *)

val clock : t -> float ref
(** The engine's clock, which it advances as it runs: what {!now}
    returns, read without boxing a float.  Read it; never write it. *)

val metrics : t -> Obs.Registry.t
(** The registry the engine reports into ({!Obs.Registry.noop} unless one
    was passed to {!create}). *)

val schedule : t -> delay:float -> handler -> unit
(** [schedule t ~delay h] runs [h] at [now t +. delay].
    @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> time:float -> handler -> unit
(** Schedule at an absolute time, which must not be in the past. *)

type handle
(** A cancellation handle for an event scheduled with
    {!schedule_cancellable} or {!schedule_at_cancellable}. *)

val schedule_cancellable : t -> delay:float -> handler -> handle
(** Like {!schedule}, returning a handle that can retract the event before
    it fires.  The fault injector uses this so that e.g. a link repair can
    cancel a pending flap cycle. *)

val schedule_at_cancellable : t -> time:float -> handler -> handle
(** Like {!schedule_at} with a cancellation handle. *)

val cancel : handle -> unit
(** Retract the event: when its queue slot is reached the handler is
    skipped.  Idempotent; safe after the event already fired and safe
    across {!reset} (the queue entry is gone, the handle is inert).  A
    cancelled-but-reached slot still counts towards {!events_executed}. *)

val is_cancelled : handle -> bool
(** Whether {!cancel} was called on the handle. *)

val pending : t -> int
(** Number of scheduled events not yet executed. *)

val events_executed : t -> int
(** Total number of events executed so far. *)

val queue_high_water : t -> int
(** Largest pending-queue depth observed since creation (or {!reset}). *)

type outcome =
  | Quiescent  (** The queue drained: the system converged. *)
  | Event_limit_reached  (** Stopped after executing the event budget. *)
  | Time_limit_reached  (** Stopped upon passing the time horizon. *)

val run : ?max_events:int -> ?until:float -> t -> outcome
(** Execute events in order.  [max_events] bounds the number of events
    (default unlimited); [until] is a time horizon: events strictly later
    than it remain queued.  Returns why the run stopped. *)

val reset : t -> unit
(** Clear the queue, rewind the clock to 0, and zero the executed-event
    counter and queue high-water mark: the engine is indistinguishable
    from a fresh {!create} (registered metrics keep their accumulated
    values — the registry outlives engine resets). *)
