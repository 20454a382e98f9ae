(** In-process client for the serving daemon, with deterministic retry.

    A client owns one server session and speaks full {!Proto} wire frames
    in both directions — every request is encoded to bytes and every
    response decoded from bytes, exactly as a socket transport would, so
    the codec is exercised end-to-end on every call (and so perfbench's
    serve-live workload measures real serialisation cost).

    {b Retry.}  {!call} survives transient failure: transport errors
    ({!Transport.Unavailable}), corrupt replies, replies slower than the
    per-call [timeout], and the server's own overload / deadline /
    corrupted-frame refusals are retried with exponential backoff and
    jitter, up to [attempts] tries.  All jitter randomness comes from the
    client's own {!Mutil.Rng} stream, so a seeded run retries at
    reproducible delays.  Retry is {e idempotence-aware}: [Ping], [Query],
    [Count] and [Stats] are always retryable, while [Subscribe] and
    [Unsubscribe] are re-sent only when the server provably refused the
    request before executing it (shed on arrival, or the frame was
    corrupted in flight) — a blind replay could double-subscribe. *)

type retry = {
  attempts : int;  (** total tries including the first; >= 1 *)
  base_delay : float;  (** seconds before the first re-send *)
  max_delay : float;  (** cap on the exponential growth *)
  jitter : float;
      (** delay [d] is drawn uniformly from [d*(1-j), d*(1+j)); in [0,1] *)
}

val default_retry : retry
(** 3 attempts, 10 ms base, 500 ms cap, 0.5 jitter. *)

type error =
  | Timed_out of float  (** the reply arrived after [timeout] seconds *)
  | Unreachable of string  (** transport failure or corrupt reply *)

exception Failed of error
(** Raised by {!call} once retries are exhausted (or immediately, for a
    non-idempotent request that cannot be safely re-sent), and by
    {!poll} on a transport failure. *)

type t

val connect :
  ?retry:retry ->
  ?timeout:float ->
  ?rng:Mutil.Rng.t ->
  ?clock:(unit -> float) ->
  ?sleep:(float -> unit) ->
  Server.t ->
  t
(** Open a session on the server over the direct in-process transport.
    [timeout] (default [infinity]) is the per-attempt reply budget on
    [clock] (default [Unix.gettimeofday]); [sleep] (default
    [Unix.sleepf]) waits out backoff delays — tests and the chaos
    harness inject a virtual clock and a no-op sleep to run
    deterministically at full speed.  [rng] feeds the backoff jitter
    (defaults to a fixed seed: retries are deterministic unless the
    caller splits in their own stream). *)

val connect_via :
  ?retry:retry ->
  ?timeout:float ->
  ?rng:Mutil.Rng.t ->
  ?clock:(unit -> float) ->
  ?sleep:(float -> unit) ->
  Transport.t ->
  t
(** Same, over an arbitrary transport (the chaos harness's
    fault-injecting one, for instance). *)

val session : t -> int

val call : t -> Proto.request -> Proto.response
(** One request/response round-trip through the wire codec, with retry
    as described above.  A terminal transient refusal is {e returned}
    (the server's [Rejected] is a valid in-band answer); a terminal
    transport failure raises {!Failed}.
    @raise Invalid_argument on a closed client. *)

val poll : t -> Proto.response list
(** Drain this session's pushed alert frames, oldest first (decoded
    [Alert] responses).  Empty on a closed client.  Not retried — a
    drain is destructive, so a lost reply would silently drop alerts;
    transport failure raises {!Failed} instead. *)

val retries : t -> int
(** Re-sends performed over this client's lifetime. *)

val failures : t -> int
(** Calls that ended in {!Failed}. *)

val close : t -> unit
(** Close the session (idempotent); queued alerts are dropped. *)
