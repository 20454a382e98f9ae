(* The benchmark's span recorder.  Spans carry a name, start and end on
   the monotonic clock (nanoseconds, comparable across domains), the
   span that caused them and a request id shared by every span of one
   request.  They are kept in memory and written out when the run ends.

   Recording is single-domain: work that runs on other domains (the
   Exec.Pool tasks of the simulation sweep) measures its own start and
   end and the caller files it with [add] after the join. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;
  start_ns : int64;
  stop_ns : int64;
  words : float;  (** minor words allocated inside, on the recording domain *)
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : (int * int) list;  (** open (span id, request id) *)
  mutable next_id : int;
  samples : (string, float list) Hashtbl.t;  (** per-layer metric samples *)
}

let create ~enabled =
  { enabled; spans = []; stack = []; next_id = 0; samples = Hashtbl.create 64 }

let off = create ~enabled:false
let enabled t = t.enabled
let spans t = List.rev t.spans

let fresh t ?req () =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent, inherited =
    match t.stack with (p, r) :: _ -> (p, r) | [] -> (-1, 0)
  in
  (id, parent, Option.value req ~default:inherited)

let add t ?req ~name ~start_ns ~stop_ns ~words () =
  if t.enabled then begin
    let id, parent, req = fresh t ?req () in
    t.spans <- { id; name; parent; req; start_ns; stop_ns; words } :: t.spans
  end

(* Run [f] inside a span named [name]; return its value, wall seconds
   and minor words.  Disabled, it runs [f] bare and measures nothing. *)
let measure t ?req name f =
  if not t.enabled then (f (), 0., 0.)
  else begin
    let id, parent, req = fresh t ?req () in
    t.stack <- (id, req) :: t.stack;
    let w0 = Gc.minor_words () in
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; req; start_ns; stop_ns; words } :: t.spans;
      (seconds_between start_ns stop_ns, words)
    in
    match f () with
    | v ->
      let dt, words = finish () in
      (v, dt, words)
    | exception e ->
      ignore (finish ());
      raise e
  end

let with_span t ?req name f =
  let v, _, _ = measure t ?req name f in
  v

(* Per-layer samples; the reported value is their median. *)
let record t metric v =
  if t.enabled then
    Hashtbl.replace t.samples metric
      (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples metric))

let scale_of metric =
  if String.ends_with ~suffix:"_us" metric then 1e6
  else if String.ends_with ~suffix:"_ms" metric then 1e3
  else 1.

(* A timed layer call: its span, its time under [metric] (in the unit
   the metric's suffix names) and its minor words under
   [name ^ ".minor_words"]. *)
let stage t ?req ~metric name f =
  let v, dt, words = measure t ?req name f in
  record t metric (dt *. scale_of metric);
  record t (name ^ ".minor_words") words;
  v

let samples t metric =
  Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt t.samples metric)))

let duration s = seconds_between s.start_ns s.stop_ns

(* Length of the union of [intervals] clipped to [lo, hi]: children that
   ran in parallel on several domains overlap, and an instant covered
   twice is still covered once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> (
      match cur with
      | Some (a, b) -> Int64.add acc (Int64.sub b a)
      | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if Int64.compare a cb <= 0 then go acc (Some (ca, max cb b)) rest
        else go (Int64.add acc (Int64.sub cb ca)) (Some (a, b)) rest)
  in
  Int64.to_float (go 0L None sorted) *. 1e-9

let self_times span_list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    span_list;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    span_list

let json_of_span s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","parent":%d,"req":%d,"start_ns":%Ld,"end_ns":%Ld,"minor_words":%.0f}|}
    s.id (String.escaped s.name) s.parent s.req s.start_ns s.stop_ns s.words

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (json_of_span s);
      output_char oc '\n')
    (spans t);
  close_out oc
