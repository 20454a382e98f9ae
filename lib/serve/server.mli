(** The MOAS serving daemon: an episode store behind the {!Proto} wire
    protocol, with per-session alert subscriptions fed by a live update
    tail.

    The server is transport-agnostic: {!handle} maps one encoded request
    frame to one encoded response frame, and {!pending} drains the
    session's queued alert frames — an in-process {!Client}, a socket
    loop or a test harness all drive the same entry points, and every
    byte crosses the {!Proto} codec in both directions.

    Queries are answered from the immutable store loaded at start-up.
    Alerts come from the live tail: {!tail} drains a {!Stream.Source.t}
    through {!Stream.Sharded.ingest_source} (the same ingestion entry
    point as the batch [monitor] subcommand); the live monitor raises
    [Opened]/[Flagged]/[Closed] episode alerts as it ingests, and the
    tail reads them after each batch and delivers them to every
    matching subscription in a deterministic order: alerts sorted by
    (time, prefix, kind), and within one alert, subscriptions in
    ascending id.

    {b Resilience.}  The server defends itself with {!limits}: a
    per-request deadline budget (requests whose budget is spent — in
    transit, queued, or during execution — are answered [Rejected
    "deadline exceeded"]), an in-flight cap (arrivals beyond it are
    answered [Rejected "overloaded: …"] without doing any work), a
    per-session outbox high-water mark (the {e oldest} queued alert is
    shed first, deterministically), and a slow-consumer eviction
    threshold (a session that keeps overflowing is dropped wholesale).
    If the live tail's source fails, the server degrades to read-only:
    queries and the stored state keep working, {!health} and the [Stats]
    reply report the degradation, and later {!tail} calls are no-ops.
    All of it is metered: [serve_shed_total{reason="overload"|"queue"}],
    [serve_timeouts_total], [serve_evicted_sessions] and the
    [serve_degraded] gauge — and mirrored in plain counters on the
    server so the [Stats] wire reply reports them even when metrics are
    disabled.

    {!handle}, {!pending} and session management are safe to call from
    several domains concurrently (test_serve's concurrent clients do);
    {!tail} must not run concurrently with itself. *)

type t

(** {2 Resource limits} *)

type limits = {
  deadline : float;
      (** per-request budget in seconds, measured from the request's
          arrival time; [infinity] disables the check *)
  max_inflight : int;
      (** arrivals while this many requests are already in flight are
          shed with [Rejected] *)
  queue_high_water : int;
      (** per-session outbox bound, in frames; pushing past it sheds the
          oldest queued frame *)
  evict_after : int;
      (** a session whose lifetime shed count reaches this is evicted *)
}

val default_limits : limits
(** Generous defaults — [deadline = infinity], [max_inflight = max_int],
    [queue_high_water = 65536], [evict_after = max_int] — so a server
    created without explicit limits behaves like an unlimited one. *)

type health = Serving | Degraded of string

val create :
  ?metrics:Obs.Registry.t ->
  ?limits:limits ->
  ?now:(unit -> float) ->
  ?live_config:Stream.Monitor.config ->
  ?live_jobs:int ->
  ?live_snapshot:Stream.Monitor.snapshot ->
  store:Collect.Store.t ->
  unit ->
  t
(** A server over [store].  [live_config] (default
    {!Stream.Monitor.default_config}) and [live_jobs] (default 1)
    configure the live-tail monitor behind {!tail}.

    [limits] (default {!default_limits}) are the overload-protection
    knobs; invalid limits raise [Invalid_argument].  [now] (default
    [Unix.gettimeofday]) is the clock deadlines are measured on —
    injectable so tests and the chaos harness drive deadlines on a
    virtual clock, deterministically.

    [live_snapshot] resumes the live monitor from a {!Stream.Checkpoint}
    snapshot instead of starting empty: the monitor state is restored
    with no alerts pending (no alert that predates the checkpoint is
    re-raised), and {!tail} skips batches at or before
    the snapshot's stream clock — so a killed server restarted from its
    last checkpoint converges with the uninterrupted run.  When
    [live_snapshot] is given, [live_config] is ignored (the snapshot
    carries its own).

    [metrics] (default {!Obs.Registry.noop}) receives
    [serve_requests_total{kind}], the [serve_inflight] gauge, the
    [serve_request_seconds] latency histogram, [serve_alerts_total], the
    [serve_sessions] gauge, and the resilience instruments listed
    above. *)

val health : t -> health
(** [Serving] until the live tail's source fails, [Degraded reason]
    after.  A degraded server still answers every request from state
    already ingested; it just stops tailing. *)

(** {2 Sessions} *)

val open_session : t -> int
(** Register a session and return its id (ids count up from 1). *)

val close_session : t -> int -> unit
(** Drop a session, its subscriptions and any undelivered alerts.
    Unknown ids are ignored (closing twice is fine). *)

val session_count : t -> int
val subscription_count : t -> int

val shed_total : t -> int
(** Frames and requests shed so far (queue overflow + overload),
    tracked on the server itself — available with metrics disabled. *)

val timeout_total : t -> int
(** Requests that blew their deadline budget. *)

val evicted_total : t -> int
(** Sessions evicted as slow consumers. *)

(** {2 The request path} *)

val handle : ?arrival:float -> t -> session:int -> bytes -> bytes
(** Decode one request frame, execute it, encode the response frame.
    Malformed frames and unknown session ids produce a [Rejected]
    response (never an exception): the server stays up whatever the
    client sends.

    [arrival] (default [now ()]) is when the request entered the system
    — a transport that queued or delayed the frame passes the original
    arrival so the deadline budget covers transit time.  The budget is
    checked before any work {e and} after execution: a reply computed
    after the deadline is replaced with [Rejected "deadline exceeded"]
    (its side effects, if any, stand — which is why the retrying client
    never blind-retries non-idempotent requests). *)

val pending : t -> session:int -> bytes list
(** Drain the session's queued alert frames, oldest first.  Empty for an
    unknown session.  When the outbox overflowed, the shed frames are
    simply absent: what remains is the {e newest} suffix in the original
    order. *)

(** {2 The live tail} *)

val tail :
  ?max_batches:int -> ?on_batch:(t -> unit) -> t -> Stream.Source.t -> int
(** Ingest batches from the source into the live monitor (at most
    [max_batches]; all by default), reading each batch's episode alerts
    ({!Stream.Sharded.batch_alerts}) and queueing them on matching
    subscriptions.
    [on_batch] runs after each batch's alerts are delivered (the serve
    CLI checkpoints from it).  Returns the number of batches ingested.
    Episode [Opened] alerts carry the episode start time, [Closed] its
    end time, and [Flagged] the monitor's stream clock at the settle
    point where the MOAS-list check failed (the latest event time
    ingested).

    If the source fails (its pull raises), the server transitions to
    [Degraded]: the exception is {e not} re-raised — the batches
    ingested so far are kept, the count so far is returned, the source
    is already closed (see {!Stream.Sharded.ingest_source}), and
    subsequent [tail] calls return 0 immediately.  On a server resumed
    from [live_snapshot], batches at or before the snapshot's stream
    clock are skipped.

    A subscription's query filters alerts by prefix (exact or covered),
    origin membership and time; a [min_visibility] floor above 1 matches
    no live alerts, because the tail is a single merged feed (visibility
    comes from cross-vantage correlation, which happens upstream of the
    store, not in the tail). *)

val live_snapshot : t -> Stream.Monitor.snapshot
(** The live monitor's merged snapshot — what the serve CLI writes as a
    {!Stream.Checkpoint}.  Call it between {!tail} runs (or from
    [on_batch]), not concurrently with one. *)

val live_stats : t -> Proto.stats
(** The totals behind the [Stats] request (store size, roster size,
    sessions, subscriptions, live-tail counters, health and shed /
    timeout / eviction counts). *)
