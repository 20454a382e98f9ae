(** Chaos testing for the serving path: seeded transport-level fault
    injection between {!Serve.Client} and {!Serve.Server}, a virtual
    clock to drive deadlines and timeouts deterministically, and failing
    stream sources for the live tail.

    Everything here is driven by a caller-supplied {!Mutil.Rng} stream:
    the same seed and the same call sequence produce the same faults, so
    a chaos run that finds a violation is replayable — and CI can diff
    two runs of the whole sweep byte-for-byte.

    The invariant the harness checks (see the [moas_sim chaos]
    subcommand and [test_chaos]): under any fault plan, every request
    either answers correctly, is refused in-band with [Rejected], or
    fails cleanly at the client ({!Serve.Client.Failed}) — never a hang,
    a crash, or a wrong answer. *)

(** {2 Virtual clock}

    A manually-advanced clock shared by the server (deadline budget),
    the client (timeouts, backoff sleeps) and the fault plan (injected
    delays).  Time moves only when a component advances it, so timing
    behaviour is exact and reproducible. *)

module Clock : sig
  type t

  val create : ?at:float -> unit -> t
  (** A clock reading [at] (default 0). *)

  val now : t -> float
  val advance : t -> float -> unit
  (** Move time forward; negative amounts are ignored. *)

  val fn : t -> unit -> float
  (** The clock as a [unit -> float], for [Server.create ~now] and
      [Client.connect ~clock]. *)

  val sleep : t -> float -> unit
  (** Virtual sleep — advances the clock; for [Client.connect ~sleep],
      so backoff waits cost no wall time. *)
end

(** {2 Fault plans}

    Independent per-operation probabilities, each drawn from the
    injector's RNG in a fixed order on every request. *)

type plan = {
  drop_request : float;  (** request frame vanishes: [Unavailable] *)
  drop_reply : float;  (** request executed, reply lost: [Unavailable] *)
  corrupt_request : float;  (** one octet of the request is flipped *)
  corrupt_reply : float;  (** one octet of the reply is flipped *)
  truncate_request : float;  (** request cut strictly short *)
  truncate_reply : float;  (** reply cut strictly short *)
  delay : float;  (** chance of an injected transit delay, each way *)
  delay_max : float;  (** delay is uniform on [0, delay_max) seconds *)
  disconnect : float;
      (** the session is closed under the client and the call fails *)
}

val calm : plan
(** All probabilities zero — the identity transport. *)

val hostile : plan
(** Everything at once, including disconnects. *)

val presets : (string * plan) list
(** The named plans above, for CLI [--plan] parsing and sweep loops. *)

val plan_to_string : plan -> string
(** One-line rendering for transcripts. *)

(** {2 Frame mutilation}

    The primitives the transport's corruption/truncation faults use,
    exposed for direct fuzzing. *)

val corrupt_frame : Mutil.Rng.t -> bytes -> bytes
(** Flip at least one bit of one octet: same length, always different
    from the input (empty frames pass through). *)

val truncate_frame : Mutil.Rng.t -> bytes -> bytes
(** Cut strictly short — possibly to nothing (empty frames pass
    through). *)

val transport :
  ?clock:Clock.t -> rng:Mutil.Rng.t -> plan:plan -> Serve.Server.t ->
  Serve.Transport.t
(** A {!Serve.Transport.t} over [server] that injects [plan]'s faults on
    every request: possible disconnect, request drop, request
    corruption/truncation, transit delay (advancing [clock] when given),
    then the real {!Serve.Server.handle}, then reply delay, drop,
    corruption/truncation.  [drain] and session management pass through
    unfaulted (a drain is destructive, so faulting it would lose alerts
    silently — drops are injected where retry semantics are defined).
    Raises [Invalid_argument] if a probability is outside [0,1].

    The RNG draw order is fixed, so two transports built from equal
    seeds fault identically. *)

(** {2 Failing sources} *)

exception Source_failure of string
(** What {!failing_source} raises — distinguishable from decoder or
    monitor errors in degraded-mode assertions. *)

val failing_source :
  ?message:string ->
  after:int ->
  Stream.Source.batch list ->
  Stream.Source.t
(** A source that yields the first [after] batches, then raises
    {!Source_failure} on the next pull — even if the list is already
    exhausted, so the failure point is deterministic.  (If the list is
    shorter than [after], the source just ends normally.)  Feeding it to
    {!Serve.Server.tail} drives the server into degraded mode at a known
    batch boundary. *)
