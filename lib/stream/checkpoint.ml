open Net
open Monitor

exception Corrupt of string

(* version 2: the MOASSTRM payload inside one checksummed Codec.Frame *)
let format = Codec.Frame.format ~magic:"MOASSTRM" ~version:2 ~fail:(fun m -> Corrupt m)
let kind = 1

(* ------------------------------------------------------------------ *)
(* Writers — Net.Codec primitives, MOASSTRM layout *)

open Codec

let put_config buf c =
  put_i63 buf c.window;
  put_u16 buf c.short_max_days;
  put_u16 buf c.medium_max_days;
  put_i63 buf c.day_seconds

let put_counters buf c =
  put_i63 buf c.c_updates;
  put_i63 buf c.c_announces;
  put_i63 buf c.c_withdraws;
  put_i63 buf c.c_opened;
  put_i63 buf c.c_closed;
  put_i63 buf c.c_alerts;
  put_i63 buf c.c_days

let put_open_episode buf o =
  put_i63 buf o.o_seq;
  put_i63 buf o.o_started;
  put_i63 buf o.o_days;
  put_u32 buf o.o_max_origins;
  put_asn_set buf o.o_origins_ever;
  put_bool buf o.o_clean

let put_episode buf e =
  put_prefix buf e.e_prefix;
  put_i63 buf e.e_seq;
  put_i63 buf e.e_started;
  put_i63 buf e.e_ended;
  put_i63 buf e.e_days;
  put_u32 buf e.e_max_origins;
  put_asn_set buf e.e_origins_ever;
  put_bool buf e.e_clean

let put_prefix_state buf p =
  put_prefix buf p.p_prefix;
  put_list buf
    (fun buf o ->
      put_asn buf o.origin;
      put_option buf put_asn_set o.adv_list)
    p.p_origins;
  put_option buf put_open_episode p.p_open;
  put_i63 buf p.p_closed_count

let put_window buf (idx, w) =
  put_i63 buf idx;
  put_i63 buf w.w_updates;
  put_i63 buf w.w_opened;
  put_i63 buf w.w_closed;
  put_i63 buf w.w_alerts

let encode snap =
  Frame.encode format ~kind (fun buf ->
      put_config buf snap.s_config;
      put_counters buf snap.s_counters;
      put_i63 buf snap.s_last_time;
      put_list buf put_prefix_state snap.s_prefixes;
      put_list buf put_episode snap.s_closed;
      put_list buf put_window snap.s_windows)

(* ------------------------------------------------------------------ *)
(* Readers *)

let take_config c =
  let window = take_i63 c in
  let short_max_days = take_u16 c in
  let medium_max_days = take_u16 c in
  let day_seconds = take_i63 c in
  { window; short_max_days; medium_max_days; day_seconds }

let take_counters c =
  let c_updates = take_i63 c in
  let c_announces = take_i63 c in
  let c_withdraws = take_i63 c in
  let c_opened = take_i63 c in
  let c_closed = take_i63 c in
  let c_alerts = take_i63 c in
  let c_days = take_i63 c in
  { c_updates; c_announces; c_withdraws; c_opened; c_closed; c_alerts; c_days }

let take_open_episode c =
  let o_seq = take_i63 c in
  let o_started = take_i63 c in
  let o_days = take_i63 c in
  let o_max_origins = take_u32 c in
  let o_origins_ever = take_asn_set c in
  let o_clean = take_bool c in
  { o_seq; o_started; o_days; o_max_origins; o_origins_ever; o_clean }

let take_episode c =
  let e_prefix = take_prefix c in
  let e_seq = take_i63 c in
  let e_started = take_i63 c in
  let e_ended = take_i63 c in
  let e_days = take_i63 c in
  let e_max_origins = take_u32 c in
  let e_origins_ever = take_asn_set c in
  let e_clean = take_bool c in
  { e_prefix; e_seq; e_started; e_ended; e_days; e_max_origins; e_origins_ever; e_clean }

let take_prefix_state c =
  let p_prefix = take_prefix c in
  let p_origins =
    take_list c (fun c ->
        let origin = take_asn c in
        let adv_list = take_option c take_asn_set in
        { origin; adv_list })
  in
  let p_open = take_option c take_open_episode in
  let p_closed_count = take_i63 c in
  { p_prefix; p_origins; p_open; p_closed_count }

let take_window c =
  let idx = take_i63 c in
  let w_updates = take_i63 c in
  let w_opened = take_i63 c in
  let w_closed = take_i63 c in
  let w_alerts = take_i63 c in
  (idx, { w_updates; w_opened; w_closed; w_alerts })

let decode data =
  let c, k = Frame.open_ format data in
  if k <> kind then corrupt c "unknown checkpoint kind %d" k;
  let s_config = take_config c in
  (try ignore (Monitor.create s_config)
   with Invalid_argument m -> raise (Corrupt ("config: " ^ m)));
  let s_counters = take_counters c in
  let s_last_time = take_i63 c in
  let s_prefixes = take_list c take_prefix_state in
  let s_closed = take_list c take_episode in
  let s_windows = take_list c take_window in
  expect_end c;
  { s_config; s_counters; s_last_time; s_prefixes; s_closed; s_windows }

(* ------------------------------------------------------------------ *)
(* Files *)

let write_file path snap =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (encode snap))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let data = Bytes.create n in
      really_input ic data 0 n;
      decode data)
