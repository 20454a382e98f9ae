(** The MOASSERV wire protocol: versioned, length-framed request and
    response messages for the MOAS query/alert serving daemon.

    Every frame is one {!Net.Codec.Frame}: magic ["MOASSERV"], version
    4, kind octet, u32 payload length, CRC-32 of kind and payload.  The
    decoder rejects bad magic, other versions, unknown kinds,
    truncation, payload-length lies, checksum mismatches and trailing
    octets with {!Corrupt} — the same container, and the same checks, as
    the [MOASSTOR] store and [MOASSTRM] checkpoint formats.  The
    checksum means no single corrupted octet can turn a valid frame into
    a {e different} valid frame: in-flight corruption is always surfaced
    as [Corrupt], which the retrying {!Client} treats as a transient
    transport failure.

    An [Entries] payload is the vantage count and the compact entry
    section ({!Collect.Correlator.write_entries}): a name table, then
    entries that name their vantages by index.  The frame is written in
    place ({!entries_frame}); the server writes a query's reply from the
    store's cached entry octets ({!Collect.Store.section}), byte for
    byte the frame {!encode_response} gives for the same entries.

    The query message carries {!Collect.Query.t} {e unchanged}: the wire
    protocol, the CLI [--query] flag and {!Collect.Store.query} all
    consume the one typed query — no third ad-hoc query format. *)

open Net

(** {2 Requests} *)

type request =
  | Ping
  | Query of Collect.Query.t  (** matching store entries *)
  | Count of Collect.Query.t  (** just how many match *)
  | Subscribe of Collect.Query.t
      (** push live alerts matching the query filter to this session *)
  | Unsubscribe of int  (** cancel a subscription by id *)
  | Stats  (** server-side totals *)

(** {2 Responses} *)

(** A pushed alert is the live monitor's own episode alert, carried
    unchanged (see {!Stream.Monitor.alert}). *)

type alert_kind = Stream.Monitor.alert_kind = Opened | Flagged | Closed

type alert = Stream.Monitor.alert = {
  al_time : int;  (** episode start / settle / end time *)
  al_prefix : Prefix.t;
  al_origins : Asn.Set.t;
  al_kind : alert_kind;
}

type stats = {
  st_entries : int;  (** episodes in the served store *)
  st_vantages : int;  (** store roster size *)
  st_sessions : int;
  st_subscriptions : int;
  st_live_batches : int;  (** batches ingested by the live tail *)
  st_live_updates : int;  (** events ingested by the live tail *)
  st_live_open : int;  (** episodes currently open in the live tail *)
  st_live_days : int;
  st_degraded : bool;
      (** the live tail died and the server is read-only (see
          [Server.health]) *)
  st_shed : int;  (** frames/requests shed by overload protection *)
  st_timeouts : int;  (** requests that blew their deadline budget *)
  st_evicted : int;  (** sessions evicted as slow consumers *)
}

type response =
  | Pong
  | Entries of { vantage_count : int; entries : Collect.Correlator.entry list }
  | Count_is of int
  | Subscribed of int  (** the new subscription's id *)
  | Unsubscribed of int
  | Alert of { sub : int; alert : alert }  (** pushed, never a reply *)
  | Stats_are of stats
  | Rejected of string  (** the server refused the request *)

exception Corrupt of string

val encode_request : request -> bytes
val decode_request : bytes -> request
(** @raise Corrupt on malformed input. *)

val entries_frame : vantage_count:int -> size:int -> (bytes -> int -> unit) -> bytes
(** [entries_frame ~vantage_count ~size write] is the [Entries] frame
    whose entry section ({!Collect.Correlator.write_entries} layout)
    takes [size] octets: [write dst pos] must put exactly those octets
    at [pos] in [dst].  The frame is one [bytes] of its final size,
    written in place. *)

val encode_response : response -> bytes
val decode_response : bytes -> response
(** @raise Corrupt on malformed input. *)

val request_kind : request -> string
(** Stable lowercase label ([ping], [query], …) — the [kind] label of
    the [serve_requests_total] metric. *)

val render_response : response -> string
(** Deterministic multi-line text rendering (the unit of the serve
    transcript determinism contract).  No trailing newline. *)
