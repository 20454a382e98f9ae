open Net
module Report = Stream.Report

type entry = {
  x_prefix : Prefix.t;
  x_seq : int;
  x_started : int;
  x_ended : int option;
  x_days : int;
  x_max_origins : int;
  x_origins : Asn.Set.t;
  x_clean : bool;
  x_seen_by : string list;
  x_first_detect : int option;
  x_last_detect : int option;
}

type t = { c_vantages : string list; c_entries : entry list }

let visibility e = List.length e.x_seen_by

let overlaps ~started ~ended (v : Report.episode_view) =
  (* open intervals extend to the end of time *)
  let hi = Option.value ended ~default:max_int in
  let v_hi = Option.value v.Report.v_ended ~default:max_int in
  v.Report.v_started <= hi && started <= v_hi

(* Each vantage's episodes are indexed by prefix once, so a merged
   episode only looks at its own prefix's views: O(merged x vantages)
   lookups instead of a scan of every vantage's whole episode list. *)
let index_by_prefix eps =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (v : Report.episode_view) ->
      let key = Prefix.to_key v.Report.v_prefix in
      Hashtbl.replace tbl key
        (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[]))
    eps;
  tbl

let correlate ~vantages ~merged =
  let vantages =
    List.sort (fun (a, _) (b, _) -> String.compare a b) vantages
  in
  let views =
    List.map (fun (name, snap) -> (name, index_by_prefix (Report.episodes snap))) vantages
  in
  let entries =
    List.map
      (fun (m : Report.episode_view) ->
        let key = Prefix.to_key m.Report.v_prefix in
        let sightings =
          List.filter_map
            (fun (name, index) ->
              List.fold_left
                (fun acc (v : Report.episode_view) ->
                  if overlaps ~started:m.Report.v_started ~ended:m.Report.v_ended v
                  then
                    match acc with
                    | Some (_, first) when first <= v.Report.v_started -> acc
                    | _ -> Some (name, v.Report.v_started)
                  else acc)
                None
                (Option.value (Hashtbl.find_opt index key) ~default:[]))
            views
        in
        let detects = List.map snd sightings in
        {
          x_prefix = m.Report.v_prefix;
          x_seq = m.Report.v_seq;
          x_started = m.Report.v_started;
          x_ended = m.Report.v_ended;
          x_days = m.Report.v_days;
          x_max_origins = m.Report.v_max_origins;
          x_origins = m.Report.v_origins;
          x_clean = m.Report.v_clean;
          x_seen_by = List.map fst sightings;
          x_first_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left min max_int detects));
          x_last_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left max min_int detects));
        })
      (Report.episodes merged)
  in
  { c_vantages = List.map fst vantages; c_entries = entries }

let of_result (r : Mesh.result) =
  correlate ~vantages:r.Mesh.r_per_vantage ~merged:r.Mesh.r_merged

(* ------------------------------------------------------------------ *)
(* Binary codec for one entry, shared by the MOASSTOR store format and
   the MOASSERV wire protocol (Net.Codec discipline). *)

let write_entry buf e =
  Codec.put_prefix buf e.x_prefix;
  Codec.put_i63 buf e.x_seq;
  Codec.put_i63 buf e.x_started;
  Codec.put_option buf Codec.put_i63 e.x_ended;
  Codec.put_i63 buf e.x_days;
  Codec.put_u32 buf e.x_max_origins;
  Codec.put_asn_set buf e.x_origins;
  Codec.put_bool buf e.x_clean;
  Codec.put_list buf Codec.put_string e.x_seen_by;
  Codec.put_option buf Codec.put_i63 e.x_first_detect;
  Codec.put_option buf Codec.put_i63 e.x_last_detect

(* octets of [write_entry]'s output, field by field *)
let entry_size e =
  let opt = function None -> 1 | Some _ -> 9 in
  let seen = List.fold_left (fun n v -> n + 2 + String.length v) 4 e.x_seen_by in
  5 + 8 + 8 + opt e.x_ended + 8 + 4
  + (4 + (2 * Asn.Set.cardinal e.x_origins))
  + 1 + seen + opt e.x_first_detect + opt e.x_last_detect

let read_entry c =
  let x_prefix = Codec.take_prefix c in
  let x_seq = Codec.take_i63 c in
  let x_started = Codec.take_i63 c in
  let x_ended = Codec.take_option c Codec.take_i63 in
  let x_days = Codec.take_i63 c in
  let x_max_origins = Codec.take_u32 c in
  let x_origins = Codec.take_asn_set c in
  let x_clean = Codec.take_bool c in
  let x_seen_by = Codec.take_list c Codec.take_string in
  let x_first_detect = Codec.take_option c Codec.take_i63 in
  let x_last_detect = Codec.take_option c Codec.take_i63 in
  {
    x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins;
    x_origins;
    x_clean;
    x_seen_by;
    x_first_detect;
    x_last_detect;
  }

let render_entry ~vantage_count e =
  let origins =
    Asn.Set.elements e.x_origins |> List.map Asn.to_string |> String.concat ","
  in
  let ended =
    match e.x_ended with Some v -> string_of_int v | None -> "open"
  in
  Printf.sprintf "%s#%d [%d..%s] origins={%s} %s visibility=%d/%d"
    (Prefix.to_string e.x_prefix)
    e.x_seq e.x_started ended origins
    (if e.x_clean then "clean" else "FLAGGED")
    (visibility e) vantage_count

let render t =
  let buf = Buffer.create 1024 in
  let n = List.length t.c_vantages in
  Buffer.add_string buf "=== Cross-vantage correlation ===\n";
  Buffer.add_string buf
    (Printf.sprintf "vantages: %d (%s)\n" n (String.concat " " t.c_vantages));
  Buffer.add_string buf
    (Printf.sprintf "merged episodes: %d\n" (List.length t.c_entries));
  List.iter
    (fun e ->
      let origins =
        Asn.Set.elements e.x_origins |> List.map Asn.to_string
        |> String.concat ","
      in
      let ended =
        match e.x_ended with Some v -> string_of_int v | None -> "open"
      in
      let spread =
        match (e.x_first_detect, e.x_last_detect) with
        | Some f, Some l -> Printf.sprintf "first=%d last=%d" f l
        | _ -> "cross-vantage only"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s#%d [%d..%s] origins={%s} %s visibility=%d/%d seen-by=[%s] %s\n"
           (Prefix.to_string e.x_prefix)
           e.x_seq e.x_started ended origins
           (if e.x_clean then "clean" else "FLAGGED")
           (visibility e) n
           (String.concat " " e.x_seen_by)
           spread))
    t.c_entries;
  let full, partial, cross_only =
    List.fold_left
      (fun (f, p, c) e ->
        let k = visibility e in
        if k = n then (f + 1, p, c)
        else if k = 0 then (f, p, c + 1)
        else (f, p + 1, c))
      (0, 0, 0) t.c_entries
  in
  let flagged =
    List.length (List.filter (fun e -> not e.x_clean) t.c_entries)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "visibility: full=%d partial=%d cross-vantage-only=%d\nflagged: %d\n"
       full partial cross_only flagged);
  Buffer.contents buf
