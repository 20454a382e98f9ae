open Net
open Codec

type request =
  | Ping
  | Query of Collect.Query.t
  | Count of Collect.Query.t
  | Subscribe of Collect.Query.t
  | Unsubscribe of int
  | Stats

type alert_kind = Stream.Monitor.alert_kind = Opened | Flagged | Closed

type alert = Stream.Monitor.alert = {
  al_time : int;
  al_prefix : Prefix.t;
  al_origins : Asn.Set.t;
  al_kind : alert_kind;
}

type stats = {
  st_entries : int;
  st_vantages : int;
  st_sessions : int;
  st_subscriptions : int;
  st_live_batches : int;
  st_live_updates : int;
  st_live_open : int;
  st_live_days : int;
  st_degraded : bool;
  st_shed : int;
  st_timeouts : int;
  st_evicted : int;
}

type response =
  | Pong
  | Entries of { vantage_count : int; entries : Collect.Correlator.entry list }
  | Count_is of int
  | Subscribed of int
  | Unsubscribed of int
  | Alert of { sub : int; alert : alert }
  | Stats_are of stats
  | Rejected of string

exception Corrupt of string

(* Version 2 extended the [Stats_are] payload with the health/shed/
   timeout/eviction fields and added the frame checksum; version 3 grew
   the query payload by a trailing duration-bucket clause; version 4 is
   the shared Codec.Frame and the compact entry layout in [Entries].
   Peers speaking older versions are rejected with [Corrupt] at the
   frame header. *)
let format = Codec.Frame.format ~magic:"MOASSERV" ~version:4 ~fail:(fun m -> Corrupt m)

let frame kind put = Frame.encode format ~kind put

(* {2 Requests} *)

let tag_ping = 1
let tag_query = 2
let tag_count = 3
let tag_subscribe = 4
let tag_unsubscribe = 5
let tag_stats = 6

let encode_request = function
  | Ping -> frame tag_ping (fun _ -> ())
  | Query q -> frame tag_query (fun b -> Collect.Query.write b q)
  | Count q -> frame tag_count (fun b -> Collect.Query.write b q)
  | Subscribe q -> frame tag_subscribe (fun b -> Collect.Query.write b q)
  | Unsubscribe id -> frame tag_unsubscribe (fun b -> put_u32 b id)
  | Stats -> frame tag_stats (fun _ -> ())

let decode_request data =
  let c, kind = Frame.open_ format data in
  let req =
    if kind = tag_ping then Ping
    else if kind = tag_query then Query (Collect.Query.read c)
    else if kind = tag_count then Count (Collect.Query.read c)
    else if kind = tag_subscribe then Subscribe (Collect.Query.read c)
    else if kind = tag_unsubscribe then Unsubscribe (take_u32 c)
    else if kind = tag_stats then Stats
    else corrupt c "unknown request kind %d" kind
  in
  expect_end c;
  req

let request_kind = function
  | Ping -> "ping"
  | Query _ -> "query"
  | Count _ -> "count"
  | Subscribe _ -> "subscribe"
  | Unsubscribe _ -> "unsubscribe"
  | Stats -> "stats"

(* {2 Responses} *)

let tag_pong = 1
let tag_entries = 2
let tag_count_is = 3
let tag_subscribed = 4
let tag_unsubscribed = 5
let tag_alert = 6
let tag_stats_are = 7
let tag_rejected = 8

let kind_rank = function Opened -> 0 | Flagged -> 1 | Closed -> 2

let put_alert b a =
  put_i63 b a.al_time;
  put_prefix b a.al_prefix;
  put_asn_set b a.al_origins;
  put_u8 b (kind_rank a.al_kind)

let take_alert c =
  let al_time = take_i63 c in
  let al_prefix = take_prefix c in
  let al_origins = take_asn_set c in
  let al_kind =
    match take_u8 c with
    | 0 -> Opened
    | 1 -> Flagged
    | 2 -> Closed
    | k -> corrupt c "unknown alert kind %d" k
  in
  { al_time; al_prefix; al_origins; al_kind }

let put_stats b s =
  put_i63 b s.st_entries;
  put_u32 b s.st_vantages;
  put_u32 b s.st_sessions;
  put_u32 b s.st_subscriptions;
  put_i63 b s.st_live_batches;
  put_i63 b s.st_live_updates;
  put_i63 b s.st_live_open;
  put_i63 b s.st_live_days;
  put_bool b s.st_degraded;
  put_i63 b s.st_shed;
  put_i63 b s.st_timeouts;
  put_i63 b s.st_evicted

let take_stats c =
  let st_entries = take_i63 c in
  let st_vantages = take_u32 c in
  let st_sessions = take_u32 c in
  let st_subscriptions = take_u32 c in
  let st_live_batches = take_i63 c in
  let st_live_updates = take_i63 c in
  let st_live_open = take_i63 c in
  let st_live_days = take_i63 c in
  let st_degraded = take_bool c in
  let st_shed = take_i63 c in
  let st_timeouts = take_i63 c in
  let st_evicted = take_i63 c in
  {
    st_entries;
    st_vantages;
    st_sessions;
    st_subscriptions;
    st_live_batches;
    st_live_updates;
    st_live_open;
    st_live_days;
    st_degraded;
    st_shed;
    st_timeouts;
    st_evicted;
  }

(* The one [Entries] layout: u32 vantage count, then the entry section
   ([Correlator.write_entries]), which [write] puts in place *)
let entries_frame ~vantage_count ~size write =
  Frame.make format ~kind:tag_entries ~size:(4 + size) (fun out pos ->
      set_u32 out pos vantage_count;
      write out (pos + 4))

let encode_response = function
  | Pong -> frame tag_pong (fun _ -> ())
  | Entries { vantage_count; entries } ->
    frame tag_entries (fun b ->
        put_u32 b vantage_count;
        Collect.Correlator.write_entries b entries)
  | Count_is n -> frame tag_count_is (fun b -> put_i63 b n)
  | Subscribed id -> frame tag_subscribed (fun b -> put_u32 b id)
  | Unsubscribed id -> frame tag_unsubscribed (fun b -> put_u32 b id)
  | Alert { sub; alert } ->
    frame tag_alert (fun b ->
        put_u32 b sub;
        put_alert b alert)
  | Stats_are s -> frame tag_stats_are (fun b -> put_stats b s)
  | Rejected reason -> frame tag_rejected (fun b -> put_string b reason)

let decode_response data =
  let c, kind = Frame.open_ format data in
  let resp =
    if kind = tag_pong then Pong
    else if kind = tag_entries then begin
      let vantage_count = take_u32 c in
      let entries = Collect.Correlator.read_entries c in
      Entries { vantage_count; entries }
    end
    else if kind = tag_count_is then Count_is (take_i63 c)
    else if kind = tag_subscribed then Subscribed (take_u32 c)
    else if kind = tag_unsubscribed then Unsubscribed (take_u32 c)
    else if kind = tag_alert then begin
      let sub = take_u32 c in
      let alert = take_alert c in
      Alert { sub; alert }
    end
    else if kind = tag_stats_are then Stats_are (take_stats c)
    else if kind = tag_rejected then Rejected (take_string c)
    else corrupt c "unknown response kind %d" kind
  in
  expect_end c;
  resp

(* {2 Rendering} *)

let kind_label = function
  | Opened -> "opened"
  | Flagged -> "flagged"
  | Closed -> "closed"

let render_alert a =
  Printf.sprintf "%s %s origins={%s} at %d" (kind_label a.al_kind)
    (Prefix.to_string a.al_prefix)
    (Asn.Set.elements a.al_origins
    |> List.map Asn.to_string
    |> String.concat ",")
    a.al_time

let render_response = function
  | Pong -> "pong"
  | Entries { vantage_count; entries } ->
    let header = Printf.sprintf "entries: %d" (List.length entries) in
    String.concat "\n"
      (header
      :: List.map
           (fun e -> "  " ^ Collect.Correlator.render_entry ~vantage_count e)
           entries)
  | Count_is n -> Printf.sprintf "count: %d" n
  | Subscribed id -> Printf.sprintf "subscribed #%d" id
  | Unsubscribed id -> Printf.sprintf "unsubscribed #%d" id
  | Alert { sub; alert } -> Printf.sprintf "alert #%d %s" sub (render_alert alert)
  | Stats_are s ->
    Printf.sprintf
      "stats: entries=%d vantages=%d sessions=%d subscriptions=%d\n\
       live: batches=%d updates=%d open=%d days=%d\n\
       health: %s shed=%d timeouts=%d evicted=%d"
      s.st_entries s.st_vantages s.st_sessions s.st_subscriptions
      s.st_live_batches s.st_live_updates s.st_live_open s.st_live_days
      (if s.st_degraded then "degraded" else "ok")
      s.st_shed s.st_timeouts s.st_evicted
  | Rejected reason -> Printf.sprintf "rejected: %s" reason
