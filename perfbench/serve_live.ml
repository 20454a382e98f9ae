(* serve-live: one client session on one domain, in a closed loop.  Each
   step tails the next archive day into the server, polls the session's
   alerts and issues one query of each of the five kinds, in a seeded
   order.  A step is one tail + poll (the alert latency); an operation
   is one Client.call (the query latency). *)

module Store = Collect.Store
module Proto = Serve.Proto

let jobs = 1

type fixture = {
  store : Store.t;
  batches : Stream.Source.batch array;
  plan : Inputs.call array array;  (** per step, the calls it issues *)
}

(* Set-up builds what a daemon starts from: the archive's day batches
   and the 4-vantage store, loaded from its encoded bytes. *)
let setup tr ~seed =
  let s =
    Archive.pipeline tr ~seed ~jobs:1 ~reverse:false (Inputs.archive_params ~seed)
  in
  let plan =
    Inputs.query_plan ~seed ~steps:(Array.length s.Archive.batches)
      (Array.of_list (Store.entries s.Archive.decoded))
  in
  { store = s.Archive.decoded; batches = s.Archive.batches; plan }

(* Traced only: the same batch into a shadow monitor, to split the
   tail's time into ingest, snapshot and the alert diff. *)
let shadow_tail tr shadow (b : Stream.Source.batch) ~tail_ms =
  let (), ingest_s, ingest_words =
    Trace.measure tr "stream.sharded.ingest" (fun () ->
        Stream.Sharded.ingest_batch ~day_end:(Option.is_some b.day) shadow ~time:b.time
          b.events)
  in
  let _, snapshot_s, snapshot_words =
    Trace.measure tr "stream.sharded.snapshot" (fun () -> Stream.Sharded.snapshot shadow)
  in
  Trace.record tr "stream.sharded.ingest_ms" (1e3 *. ingest_s);
  Trace.record tr "stream.sharded.ingest.minor_words" ingest_words;
  Trace.record tr "stream.sharded.snapshot_ms" (1e3 *. snapshot_s);
  Trace.record tr "stream.sharded.snapshot.minor_words" snapshot_words;
  Trace.record tr "serve.server.diff_ms" (tail_ms -. (1e3 *. (ingest_s +. snapshot_s)))

(* Traced only: the call again through the public pieces Client.call is
   made of, on the same server and session. *)
let shadow_call tr server ~session (call : Inputs.call) =
  let k = Inputs.kind_name call.kind in
  let frame, enc_s, _ =
    Trace.measure tr "serve.proto.encode_request" (fun () ->
        Proto.encode_request call.request)
  in
  let reply, handle_s, handle_words =
    Trace.measure tr "serve.server.handle" (fun () ->
        Serve.Server.handle server ~session frame)
  in
  let _, dec_s, _ =
    Trace.measure tr "serve.proto.decode_response" (fun () -> Proto.decode_response reply)
  in
  Trace.record tr ("serve.proto." ^ k ^ ".codec_us") (1e6 *. (enc_s +. dec_s));
  Trace.record tr ("serve.server." ^ k ^ ".handle_us") (1e6 *. handle_s);
  Trace.record tr ("serve.server." ^ k ^ ".handle.minor_words") handle_words;
  Trace.record tr ("serve.proto." ^ k ^ ".reply_bytes") (float_of_int (Bytes.length reply))

let pass tr fx =
  let server = Serve.Server.create ~store:fx.store () in
  let client = Serve.Client.connect server in
  let session = Serve.Client.session client in
  let checks = Pass.Checks.create () in
  let steps = Pass.Samples.create () and ops = Pass.Samples.create () in
  let work = ref 0. in
  Pass.Checks.check checks "subscribe"
    (match Serve.Client.call client (Proto.Subscribe Collect.Query.empty) with
    | Proto.Subscribed _ -> true
    | _ -> false);
  let source = Stream.Source.of_batches fx.batches in
  let shadow = Stream.Sharded.create ~jobs:1 Stream.Monitor.default_config in
  let tally = ref Oracle.no_alerts and alerts = ref 0 in
  Array.iteri
    (fun i (b : Stream.Source.batch) ->
      let t0 = Trace.now_ns () in
      let ingested, tail_s, tail_words =
        Trace.measure tr ~req:i "serve.server.tail" (fun () ->
            Serve.Server.tail ~max_batches:1 server source)
      in
      Trace.record tr "serve.server.tail_ms" (1e3 *. tail_s);
      Trace.record tr "serve.server.tail.minor_words" tail_words;
      let pushed =
        Trace.stage tr ~req:i ~metric:"serve.client.poll_us" "serve.client.poll" (fun () ->
            Serve.Client.poll client)
      in
      let step_s = Trace.seconds_between t0 (Trace.now_ns ()) in
      Pass.Samples.push steps (1e3 *. step_s);
      work := !work +. step_s;
      Trace.with_span tr ~req:i "perfbench.check" (fun () ->
          Pass.Checks.check checks "one batch per tail" (ingested = 1);
          List.iter
            (fun r ->
              incr alerts;
              match Oracle.tally_alert !tally r with
              | Some t -> tally := t
              | None -> Pass.Checks.check checks "pushed frame is an alert" false)
            pushed;
          if Trace.enabled tr then shadow_tail tr shadow b ~tail_ms:(1e3 *. tail_s));
      Array.iter
        (fun (call : Inputs.call) ->
          let reply, dt =
            Pass.time (fun () ->
                Trace.stage tr ~req:i ~metric:"serve.client.call_us" "serve.client.call"
                  (fun () -> Serve.Client.call client call.request))
          in
          Pass.Samples.push ops (1e6 *. dt);
          work := !work +. dt;
          Trace.with_span tr ~req:i "perfbench.check" (fun () ->
              let k = Inputs.kind_name call.kind in
              let expected =
                Trace.stage tr ~metric:("collect.store." ^ k ^ ".query_us")
                  "collect.store.query" (fun () -> Oracle.direct fx.store call.request)
              in
              Pass.Checks.check checks ("reply to " ^ k ^ " query")
                (Oracle.reply_ok expected reply);
              if Trace.enabled tr then shadow_call tr server ~session call))
        fx.plan.(i))
    fx.batches;
  Pass.Checks.check checks "alerts match the live monitor's episodes"
    (!tally = Oracle.expected_alerts (Serve.Server.live_snapshot server));
  Trace.record tr "serve.server.alerts" (float_of_int !alerts);
  Serve.Client.close client;
  {
    Pass.work_s = !work;
    steps_ms = Pass.Samples.contents steps;
    ops_us = Pass.Samples.contents ops;
    attempted = checks.attempted;
    failed = checks.failed;
  }

let stamp fx =
  [
    ("events", string_of_int (Archive.events fx.batches));
    ("entries", string_of_int (Store.count fx.store));
    ("steps", string_of_int (Array.length fx.batches));
    ("calls_per_step", string_of_int (Array.length Inputs.kinds));
    ("clients", "1");
  ]
