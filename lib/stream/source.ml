open Net
module Srv = Measurement.Synthetic_routeviews

type batch = { time : int; day : Mutil.Day.t option; events : Monitor.event array }

let day_seconds = 86_400

type annotator = Prefix.t -> Asn.Set.t -> Asn.t -> Asn.Set.t option

let no_annotation : annotator = fun _ _ _ -> None

let trusted_annotator ?(distrusted = Asn.Set.empty) () : annotator =
 fun _prefix origins _origin ->
  if Asn.Set.exists (fun a -> Asn.Set.mem a distrusted) origins then None
  else Some origins

let fault_annotator =
  trusted_annotator
    ~distrusted:
      (Asn.Set.of_list
         [
           Measurement.Synthetic_routeviews.fault_as_1998;
           Measurement.Synthetic_routeviews.fault_as_2001;
         ])
    ()

(* One archive day's deltas as events.  For each changed prefix the
   withdrawals come first and then every current origin re-announces with
   a freshly computed MOAS list: the wire behaviour of origins updating
   the list as membership changes, and the order that keeps a
   legitimately shrinking conflict from being flagged over a stale
   list. *)
let day_batch ~annotate (d : Srv.day_delta) =
  let time = d.Srv.delta_day * day_seconds in
  let events = ref [] in
  let emit peer prefix action =
    events := { Monitor.time; peer; prefix; action } :: !events
  in
  List.iter
    (fun { Srv.prefix; before; after; _ } ->
      Asn.Set.iter
        (fun origin -> emit origin prefix (Monitor.Withdraw { origin }))
        (Asn.Set.diff before after);
      Asn.Set.iter
        (fun origin ->
          emit origin prefix
            (Monitor.Announce
               { origin; moas_list = annotate prefix after origin }))
        after)
    d.Srv.changes;
  { time; day = Some d.Srv.delta_day; events = Array.of_list (List.rev !events) }

(* ------------------------------------------------------------------ *)
(* The uniform pull interface: every source — synthetic archive, MRT
   blobs, decoded wire messages, pre-materialised batches — is opened as
   a [t] and drained with [next]/[close], so the serving daemon's live
   tail and the batch monitor share one ingestion entry point
   ({!Sharded.ingest_source}) instead of per-source plumbing. *)

type t = {
  mutable pull : unit -> batch option;
  mutable closed : bool;
}

let make pull = { pull; closed = false }

let next s = if s.closed then None else s.pull ()

let close s =
  s.closed <- true;
  s.pull <- (fun () -> None)

let fold s ~init ~f =
  Fun.protect
    ~finally:(fun () -> close s)
    (fun () ->
      let rec loop acc =
        match next s with None -> acc | Some b -> loop (f acc b)
      in
      loop init)

let of_seq seq =
  let state = ref seq in
  make (fun () ->
      match !state () with
      | Seq.Nil -> None
      | Seq.Cons (b, rest) ->
        state := rest;
        Some b)

let of_batches batches = of_seq (Array.to_seq batches)

let of_archive ?(annotate = no_annotation) params =
  of_seq (Seq.map (day_batch ~annotate) (Srv.delta_seq params))

let fold_archive ?annotate params ~init ~f =
  fold (of_archive ?annotate params) ~init ~f

let archive_batches ?annotate params =
  Array.of_list
    (List.rev
       (fold_archive ?annotate params ~init:[] ~f:(fun acc b -> b :: acc)))

(* ------------------------------------------------------------------ *)
(* Wire and MRT adapters *)

let of_wire ~time ~peer (message : Bgp.Wire.message) =
  let withdraws =
    List.map
      (fun prefix ->
        { Monitor.time; peer; prefix; action = Monitor.Withdraw { origin = peer } })
      message.Bgp.Wire.withdrawn
  in
  let announces =
    match message.Bgp.Wire.attributes with
    | None -> []
    | Some attrs ->
      let origin =
        Option.value ~default:peer
          (Bgp.As_path.origin_as attrs.Bgp.Wire.as_path)
      in
      let moas_list = Moas.Moas_list.decode attrs.Bgp.Wire.communities in
      List.map
        (fun prefix ->
          {
            Monitor.time;
            peer;
            prefix;
            action = Monitor.Announce { origin; moas_list };
          })
        message.Bgp.Wire.nlri
  in
  Array.of_list (withdraws @ announces)

let of_table ~time ~peer routes =
  Array.of_list
    (List.map
       (fun (r : Bgp.Route.t) ->
         {
           Monitor.time;
           peer;
           prefix = r.Bgp.Route.prefix;
           action =
             Monitor.Announce
               {
                 origin = Bgp.Route.origin_as ~self:peer r;
                 moas_list = Moas.Moas_list.decode r.Bgp.Route.communities;
               };
         })
       routes)

let of_mrt data =
  let events, last =
    Measurement.Mrt.fold_records data ~init:([], 0) ~f:(fun (acc, last) r ->
        let origin =
          Option.value ~default:r.Measurement.Mrt.peer_as
            (Bgp.As_path.origin_as r.Measurement.Mrt.as_path)
        in
        let ev =
          {
            Monitor.time = r.Measurement.Mrt.timestamp;
            peer = r.Measurement.Mrt.peer_as;
            prefix = r.Measurement.Mrt.prefix;
            action = Monitor.Announce { origin; moas_list = None };
          }
        in
        (ev :: acc, max last r.Measurement.Mrt.timestamp))
  in
  { time = last; day = None; events = Array.of_list (List.rev events) }
