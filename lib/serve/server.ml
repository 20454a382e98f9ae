open Net
module Registry = Obs.Registry
module Query = Collect.Query
module Store = Collect.Store

(* {2 Resource limits} *)

type limits = {
  deadline : float;
  max_inflight : int;
  queue_high_water : int;
  evict_after : int;
}

let default_limits =
  {
    deadline = infinity;
    max_inflight = max_int;
    queue_high_water = 65_536;
    evict_after = max_int;
  }

let check_limits l =
  if not (l.deadline > 0.0) then
    invalid_arg "Serve.Server: deadline must be positive";
  if l.max_inflight < 0 then
    invalid_arg "Serve.Server: max_inflight must be non-negative";
  if l.queue_high_water < 1 then
    invalid_arg "Serve.Server: queue_high_water must be positive";
  if l.evict_after < 1 then
    invalid_arg "Serve.Server: evict_after must be positive"

type health = Serving | Degraded of string

type subscription = { sub_id : int; sub_query : Query.t }

type session = {
  sid : int;
  (* descending sub_id: subscribe is O(1), delivery reverses once per
     batch (it walks every subscription anyway) *)
  mutable subs : subscription list;
  mutable n_subs : int;
  outbox : bytes Queue.t;  (* encoded Alert frames, oldest first *)
  mutable shed : int;  (* frames shed from this outbox, ever *)
  mutable next_sub : int;
}

type t = {
  store : Store.t;
  limits : limits;
  now : unit -> float;
  lock : Mutex.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable total_subs : int;  (* tracked so Stats never walks sessions *)
  mutable inflight : int;
  mutable health : health;
  (* operational counters, tracked on the server itself so Stats reports
     them over the wire even when metrics are disabled *)
  mutable n_shed : int;
  mutable n_timeouts : int;
  mutable n_evicted : int;
  live : Stream.Sharded.t;
  mutable live_batches : int;
  since : int;  (* resume floor: tail skips batches at or before this *)
  metrics : Registry.t;
  m_requests : (string * Registry.Counter.t) list;
  m_malformed : Registry.Counter.t;
  m_alerts : Registry.Counter.t;
  m_shed_queue : Registry.Counter.t;
  m_shed_overload : Registry.Counter.t;
  m_timeouts : Registry.Counter.t;
  m_evicted : Registry.Counter.t;
  g_inflight : Registry.Gauge.t;
  g_sessions : Registry.Gauge.t;
  g_degraded : Registry.Gauge.t;
  h_request : Registry.Histogram.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let request_kinds = [ "ping"; "query"; "count"; "subscribe"; "unsubscribe"; "stats" ]

let create ?(metrics = Registry.noop) ?(limits = default_limits)
    ?(now = Unix.gettimeofday) ?live_config ?(live_jobs = 1) ?live_snapshot
    ~store () =
  check_limits limits;
  let live, since =
    match live_snapshot with
    | Some snap ->
      (* the snapshot carries its own monitor config; live_config is
         ignored on resume *)
      ( Stream.Sharded.of_snapshot ~jobs:live_jobs snap,
        snap.Stream.Monitor.s_last_time )
    | None ->
      let live_config =
        match live_config with
        | Some c -> c
        | None -> Stream.Monitor.default_config
      in
      (Stream.Sharded.create ~jobs:live_jobs live_config, min_int)
  in
  {
    store;
    limits;
    now;
    lock = Mutex.create ();
    sessions = Hashtbl.create 16;
    next_sid = 1;
    total_subs = 0;
    inflight = 0;
    health = Serving;
    n_shed = 0;
    n_timeouts = 0;
    n_evicted = 0;
    live;
    live_batches = 0;
    since;
    metrics;
    (* instruments are pre-registered so the request path never mutates
       the registry's tables (handle runs on several domains at once) *)
    m_requests =
      List.map
        (fun kind ->
          (kind, Registry.counter metrics ~labels:[ ("kind", kind) ]
                   "serve_requests_total"))
        request_kinds;
    m_malformed =
      Registry.counter metrics ~labels:[ ("kind", "malformed") ]
        "serve_requests_total";
    m_alerts = Registry.counter metrics "serve_alerts_total";
    m_shed_queue =
      Registry.counter metrics ~labels:[ ("reason", "queue") ]
        "serve_shed_total";
    m_shed_overload =
      Registry.counter metrics ~labels:[ ("reason", "overload") ]
        "serve_shed_total";
    m_timeouts = Registry.counter metrics "serve_timeouts_total";
    m_evicted = Registry.counter metrics "serve_evicted_sessions";
    g_inflight = Registry.gauge metrics "serve_inflight";
    g_sessions = Registry.gauge metrics "serve_sessions";
    g_degraded = Registry.gauge metrics "serve_degraded";
    h_request = Registry.histogram metrics "serve_request_seconds";
  }

let health t = locked t (fun () -> t.health)

let live_snapshot t = Stream.Sharded.snapshot t.live

(* {2 Sessions} *)

let open_session t =
  locked t (fun () ->
      let sid = t.next_sid in
      t.next_sid <- sid + 1;
      Hashtbl.replace t.sessions sid
        {
          sid;
          subs = [];
          n_subs = 0;
          outbox = Queue.create ();
          shed = 0;
          next_sub = 1;
        };
      Registry.Gauge.set t.g_sessions
        (float_of_int (Hashtbl.length t.sessions));
      sid)

let close_session t sid =
  locked t (fun () ->
      (match Hashtbl.find_opt t.sessions sid with
      | None -> ()
      | Some s -> t.total_subs <- t.total_subs - s.n_subs);
      Hashtbl.remove t.sessions sid;
      Registry.Gauge.set t.g_sessions
        (float_of_int (Hashtbl.length t.sessions)))

let session_count t = locked t (fun () -> Hashtbl.length t.sessions)
let subscription_count t = locked t (fun () -> t.total_subs)
let shed_total t = locked t (fun () -> t.n_shed)
let timeout_total t = locked t (fun () -> t.n_timeouts)
let evicted_total t = locked t (fun () -> t.n_evicted)

let pending t ~session =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions session with
      | None -> []
      | Some s ->
        let frames =
          List.rev (Queue.fold (fun acc f -> f :: acc) [] s.outbox)
        in
        Queue.clear s.outbox;
        frames)

(* {2 Stats} *)

let live_stats t =
  locked t (fun () ->
      {
        Proto.st_entries = Store.count t.store;
        st_vantages = List.length (Store.vantages t.store);
        st_sessions = Hashtbl.length t.sessions;
        st_subscriptions = t.total_subs;
        st_live_batches = t.live_batches;
        st_live_updates = Stream.Sharded.update_count t.live;
        st_live_open = Stream.Sharded.open_count t.live;
        st_live_days = Stream.Sharded.day_count t.live;
        st_degraded = (match t.health with Degraded _ -> true | Serving -> false);
        st_shed = t.n_shed;
        st_timeouts = t.n_timeouts;
        st_evicted = t.n_evicted;
      })

(* {2 The request path} *)

let vantage_count t = List.length (Store.vantages t.store)

(* the reply frame *)
let execute t session req =
  let reply = Proto.encode_response in
  match (req : Proto.request) with
  | Ping -> reply Proto.Pong
  | Query q ->
    (* the matches' octets, cached in the store, go straight into the
       frame: no entry list, no re-encoding, when the matches name every
       vantage of the store's name table *)
    let size, write = Store.section t.store q in
    Proto.entries_frame ~vantage_count:(vantage_count t) ~size write
  | Count q -> reply (Proto.Count_is (Store.count_matching t.store q))
  | Subscribe q ->
    reply @@ locked t (fun () ->
        match Hashtbl.find_opt t.sessions session with
        | None -> Proto.Rejected (Printf.sprintf "unknown session %d" session)
        | Some s ->
          let sub_id = s.next_sub in
          s.next_sub <- sub_id + 1;
          s.subs <- { sub_id; sub_query = q } :: s.subs;
          s.n_subs <- s.n_subs + 1;
          t.total_subs <- t.total_subs + 1;
          Proto.Subscribed sub_id)
  | Unsubscribe id ->
    reply @@ locked t (fun () ->
        match Hashtbl.find_opt t.sessions session with
        | None -> Proto.Rejected (Printf.sprintf "unknown session %d" session)
        | Some s ->
          if List.exists (fun sub -> sub.sub_id = id) s.subs then begin
            s.subs <- List.filter (fun sub -> sub.sub_id <> id) s.subs;
            s.n_subs <- s.n_subs - 1;
            t.total_subs <- t.total_subs - 1;
            Proto.Unsubscribed id
          end
          else Proto.Rejected (Printf.sprintf "unknown subscription %d" id))
  | Stats -> reply (Proto.Stats_are (live_stats t))

(* fixed rejection strings: scripted transcripts must be byte-identical
   across runs, so no elapsed times or limits leak into the reply *)
let overloaded_reply = Proto.Rejected "overloaded: too many requests in flight"
let deadline_reply = Proto.Rejected "deadline exceeded"

let over_deadline t ~t0 =
  t.limits.deadline < infinity && t.now () -. t0 > t.limits.deadline

let handle ?arrival t ~session data =
  let t0 = match arrival with Some a -> a | None -> t.now () in
  let shed =
    locked t (fun () ->
        t.inflight <- t.inflight + 1;
        Registry.Gauge.add t.g_inflight 1.;
        t.inflight > t.limits.max_inflight)
  in
  let finish reply =
    locked t (fun () ->
        t.inflight <- t.inflight - 1;
        Registry.Gauge.add t.g_inflight (-1.);
        Registry.Histogram.observe t.h_request (t.now () -. t0));
    reply
  in
  if shed then begin
    locked t (fun () ->
        t.n_shed <- t.n_shed + 1;
        Registry.Counter.incr t.m_shed_overload);
    finish (Proto.encode_response overloaded_reply)
  end
  else if over_deadline t ~t0 then begin
    (* the deadline budget starts at [arrival] — a request that spent its
       budget queued or in transit is turned away before any work *)
    locked t (fun () ->
        t.n_timeouts <- t.n_timeouts + 1;
        Registry.Counter.incr t.m_timeouts);
    finish (Proto.encode_response deadline_reply)
  end
  else begin
    let reply =
      match Proto.decode_request data with
      | exception Proto.Corrupt msg ->
        locked t (fun () -> Registry.Counter.incr t.m_malformed);
        Proto.encode_response (Proto.Rejected ("malformed request: " ^ msg))
      | req ->
        let kind = Proto.request_kind req in
        locked t (fun () ->
            match List.assoc_opt kind t.m_requests with
            | Some c -> Registry.Counter.incr c
            | None -> ());
        execute t session req
    in
    (* a result computed after the budget ran out is as good as no
       result: the client has already given up on it.  Non-idempotent
       side effects (a Subscribe) may still have been applied — which is
       exactly why the client never blind-retries those. *)
    if over_deadline t ~t0 then begin
      locked t (fun () ->
          t.n_timeouts <- t.n_timeouts + 1;
          Registry.Counter.incr t.m_timeouts);
      finish (Proto.encode_response deadline_reply)
    end
    else finish reply
  end

(* {2 The live tail} *)

(* Whether a live alert passes a subscription's query filter.  The tail
   is one merged feed, so an alert's visibility is 1: a floor above that
   can never match (cross-vantage visibility exists only in the store). *)
let alert_matches q (a : Proto.alert) =
  (match Query.target q with
  | None -> true
  | Some p ->
    if Query.wants_covered q then Prefix.subsumes p a.al_prefix
    else Prefix.compare p a.al_prefix = 0)
  && (match Query.origin_filter q with
     | None -> true
     | Some asn -> Asn.Set.mem asn a.al_origins)
  && (match Query.since_bound q with None -> true | Some s -> a.al_time >= s)
  && (match Query.until_bound q with None -> true | Some u -> a.al_time <= u)
  && match Query.visibility_floor q with None -> true | Some k -> k <= 1

(* Queue one frame on a session, shedding the oldest frame past the
   high-water mark: a consumer that stops polling loses its backlog's
   head, never the server's memory. *)
let push_bounded t s frame =
  Queue.push frame s.outbox;
  Registry.Counter.incr t.m_alerts;
  if Queue.length s.outbox > t.limits.queue_high_water then begin
    ignore (Queue.pop s.outbox);
    s.shed <- s.shed + 1;
    t.n_shed <- t.n_shed + 1;
    Registry.Counter.incr t.m_shed_queue
  end

let deliver t alerts =
  locked t (fun () ->
      let sids =
        List.sort Int.compare
          (Hashtbl.fold (fun sid _ acc -> sid :: acc) t.sessions [])
      in
      List.iter
        (fun sid ->
          match Hashtbl.find_opt t.sessions sid with
          | None -> ()
          | Some s ->
            let subs_asc = List.rev s.subs in
            List.iter
              (fun alert ->
                List.iter
                  (fun sub ->
                    if alert_matches sub.sub_query alert then
                      push_bounded t s
                        (Proto.encode_response
                           (Proto.Alert { sub = sub.sub_id; alert })))
                  subs_asc)
              alerts;
            (* a session that keeps overflowing is a slow consumer: once
               its lifetime shed count crosses the eviction threshold it
               is dropped wholesale, subscriptions and backlog included *)
            if s.shed >= t.limits.evict_after then begin
              Hashtbl.remove t.sessions sid;
              t.total_subs <- t.total_subs - s.n_subs;
              t.n_evicted <- t.n_evicted + 1;
              Registry.Counter.incr t.m_evicted;
              Registry.Gauge.set t.g_sessions
                (float_of_int (Hashtbl.length t.sessions))
            end)
        sids)

let tail ?max_batches ?on_batch t source =
  let already_degraded =
    locked t (fun () ->
        match t.health with Degraded _ -> true | Serving -> false)
  in
  if already_degraded then 0
  else begin
    let ingested = ref 0 in
    match
      Stream.Sharded.ingest_source ?max_batches ~since:t.since t.live source
        ~on_batch:(fun live _batch ->
          let alerts = Stream.Sharded.batch_alerts live in
          locked t (fun () -> t.live_batches <- t.live_batches + 1);
          incr ingested;
          if alerts <> [] then deliver t alerts;
          match on_batch with Some f -> f t | None -> ())
    with
    | n -> n
    | exception exn ->
      (* the tail source died: freeze the live monitor where the last
         completed batch left it and keep serving queries read-only.
         ingest_source already closed the source. *)
      locked t (fun () ->
          t.health <- Degraded (Printexc.to_string exn);
          Registry.Gauge.set t.g_degraded 1.);
      !ingested
  end
