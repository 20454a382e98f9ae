type labels = (string * string) list

(* labels are normalised (sorted by key) so that the same logical label
   set always maps to the same instrument and export order is stable *)
let normalise labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

module Counter = struct
  type t = Noop | Live of { mutable v : int }

  let make () = Live { v = 0 }

  let incr = function Noop -> () | Live c -> c.v <- c.v + 1

  let add t n =
    if n < 0 then invalid_arg "Registry.Counter.add: negative increment";
    match t with Noop -> () | Live c -> c.v <- c.v + n

  let value = function Noop -> 0 | Live c -> c.v
end

module Gauge = struct
  type t = Noop | Live of { mutable v : float }

  let make () = Live { v = 0.0 }

  let set t x = match t with Noop -> () | Live g -> g.v <- x
  let add t x = match t with Noop -> () | Live g -> g.v <- g.v +. x

  let observe_max t x =
    match t with Noop -> () | Live g -> if x > g.v then g.v <- x

  let value = function Noop -> 0.0 | Live g -> g.v
end

module Histogram = struct
  type cell = {
    bounds : float array; (* strictly increasing upper bounds *)
    counts : int array; (* one slot per bound plus the overflow bucket *)
    mutable total : int;
    mutable sum : float;
  }

  type t = Noop | Live of cell

  (* 100 us .. 10 s in decades: wall-clock durations in seconds *)
  let default_bounds = [ 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 ]

  let make bounds =
    let rec sorted = function
      | a :: (b :: _ as rest) -> a < b && sorted rest
      | _ -> true
    in
    if not (sorted bounds) then
      invalid_arg "Registry.histogram: bucket bounds must be increasing";
    let bounds = Array.of_list bounds in
    Live
      {
        bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        total = 0;
        sum = 0.0;
      }

  let observe t x =
    match t with
    | Noop -> ()
    | Live h ->
      let n = Array.length h.bounds in
      let rec slot i = if i >= n || x <= h.bounds.(i) then i else slot (i + 1) in
      let i = slot 0 in
      h.counts.(i) <- h.counts.(i) + 1;
      h.total <- h.total + 1;
      h.sum <- h.sum +. x

  let count = function Noop -> 0 | Live h -> h.total
  let sum = function Noop -> 0.0 | Live h -> h.sum

  let buckets = function
    | Noop -> []
    | Live h ->
      List.init
        (Array.length h.counts)
        (fun i ->
          let bound =
            if i < Array.length h.bounds then h.bounds.(i) else infinity
          in
          (bound, h.counts.(i)))
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t

type t =
  | Disabled
  | Enabled of { table : (string * labels, instrument) Hashtbl.t }

let create () = Enabled { table = Hashtbl.create 64 }
let noop = Disabled
let is_noop = function Disabled -> true | Enabled _ -> false

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

let register t ~labels name ~make ~extract ~wanted =
  match t with
  | Disabled -> None
  | Enabled { table } ->
    let key = (name, normalise labels) in
    (match Hashtbl.find_opt table key with
    | Some existing ->
      (match extract existing with
      | Some handle -> Some handle
      | None ->
        invalid_arg
          (Printf.sprintf "Registry: %s is already a %s, not a %s" name
             (kind_name existing) wanted))
    | None ->
      let handle, instrument = make () in
      Hashtbl.add table key instrument;
      Some handle)

let counter t ?(labels = []) name =
  match
    register t ~labels name ~wanted:"counter"
      ~make:(fun () ->
        let c = Counter.make () in
        (c, I_counter c))
      ~extract:(function I_counter c -> Some c | _ -> None)
  with
  | Some c -> c
  | None -> Counter.Noop

let gauge t ?(labels = []) name =
  match
    register t ~labels name ~wanted:"gauge"
      ~make:(fun () ->
        let g = Gauge.make () in
        (g, I_gauge g))
      ~extract:(function I_gauge g -> Some g | _ -> None)
  with
  | Some g -> g
  | None -> Gauge.Noop

let histogram t ?(labels = []) ?(buckets = Histogram.default_bounds) name =
  match
    register t ~labels name ~wanted:"histogram"
      ~make:(fun () ->
        let h = Histogram.make buckets in
        (h, I_histogram h))
      ~extract:(function I_histogram h -> Some h | _ -> None)
  with
  | Some h -> h
  | None -> Histogram.Noop

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

and histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;
}

type sample = { name : string; labels : labels; value : value }

let samples t =
  match t with
  | Disabled -> []
  | Enabled { table } ->
    Hashtbl.fold
      (fun (name, labels) instrument acc ->
        let value =
          match instrument with
          | I_counter c -> Counter (Counter.value c)
          | I_gauge g -> Gauge (Gauge.value g)
          | I_histogram h ->
            Histogram
              {
                h_count = Histogram.count h;
                h_sum = Histogram.sum h;
                h_buckets = Histogram.buckets h;
              }
        in
        { name; labels; value } :: acc)
      table []
    |> List.sort (fun a b ->
           match compare a.name b.name with
           | 0 -> compare a.labels b.labels
           | c -> c)

let counter_value t ?(labels = []) name =
  match t with
  | Disabled -> 0
  | Enabled { table } ->
    (match Hashtbl.find_opt table (name, normalise labels) with
    | Some (I_counter c) -> Counter.value c
    | _ -> 0)

let sum_counters t name =
  List.fold_left
    (fun acc s ->
      match s.value with
      | Counter v when s.name = name -> acc + v
      | _ -> acc)
    0 (samples t)

let labels_cell labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let value_cells = function
  | Counter v -> ("counter", string_of_int v)
  | Gauge v -> ("gauge", Printf.sprintf "%g" v)
  | Histogram h ->
    ( "histogram",
      Printf.sprintf "n=%d sum=%g" h.h_count h.h_sum )

let to_csv t =
  let header = [ "metric"; "labels"; "type"; "value" ] in
  let rows =
    List.map
      (fun s ->
        let kind, value = value_cells s.value in
        [ s.name; labels_cell s.labels; kind; value ])
      (samples t)
  in
  (header, rows)

(* minimal JSON string escaping: the metric names and labels we emit are
   plain identifiers, but be correct anyway *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) labels)
  ^ "}"

let to_json_lines ?(extra = []) t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      let labels = normalise (extra @ s.labels) in
      let body =
        match s.value with
        | Counter v -> Printf.sprintf "\"type\":\"counter\",\"value\":%d" v
        | Gauge v ->
          Printf.sprintf "\"type\":\"gauge\",\"value\":%s" (json_float v)
        | Histogram h ->
          Printf.sprintf
            "\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"buckets\":[%s]"
            h.h_count (json_float h.h_sum)
            (String.concat ","
               (List.map
                  (fun (bound, n) ->
                    Printf.sprintf "{\"le\":%s,\"count\":%d}"
                      (if bound = infinity then "\"inf\"" else json_float bound)
                      n)
                  h.h_buckets))
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"metric\":%s,\"labels\":%s,%s}\n"
           (json_string s.name) (json_labels labels) body))
    (samples t);
  Buffer.contents buf

let clear = function
  | Disabled -> ()
  | Enabled { table } -> Hashtbl.reset table

let merge ~into src =
  match (src, into) with
  | Disabled, _ | _, Disabled -> ()
  | Enabled { table = src_table }, Enabled _ ->
    (* fold over a (name, labels)-sorted view of the source so the merge
       order — and therefore any instrument creation in [into] — is
       independent of hash-table iteration order *)
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) src_table []
      |> List.sort (fun ((n1, l1), _) ((n2, l2), _) ->
             match compare n1 n2 with 0 -> compare l1 l2 | c -> c)
    in
    List.iter
      (fun ((name, labels), instrument) ->
        match instrument with
        | I_counter c ->
          Counter.add (counter into ~labels name) (Counter.value c)
        | I_gauge g -> Gauge.add (gauge into ~labels name) (Gauge.value g)
        | I_histogram Histogram.Noop -> ()
        | I_histogram (Histogram.Live cell) ->
          (match
             histogram into ~labels
               ~buckets:(Array.to_list cell.Histogram.bounds)
               name
           with
          | Histogram.Noop -> ()
          | Histogram.Live d ->
            if d.Histogram.bounds <> cell.Histogram.bounds then
              invalid_arg
                (Printf.sprintf
                   "Registry.merge: %s has different bucket bounds" name);
            Array.iteri
              (fun i n ->
                d.Histogram.counts.(i) <- d.Histogram.counts.(i) + n)
              cell.Histogram.counts;
            d.Histogram.total <- d.Histogram.total + cell.Histogram.total;
            d.Histogram.sum <- d.Histogram.sum +. cell.Histogram.sum))
      entries
