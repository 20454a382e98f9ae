open Net

type t = {
  observer : Asn.t;
  prefix : Prefix.t;
  time : float;
  conflicting_lists : Asn.Set.t list;
  origins_seen : Asn.Set.t;
}

let make ~observer ~prefix ~time ~conflicting_lists ~origins_seen =
  let sorted = List.sort Asn.Set.compare conflicting_lists in
  { observer; prefix; time; conflicting_lists = sorted; origins_seen }

let compare_conflict a b =
  match Prefix.compare a.prefix b.prefix with
  | 0 -> List.compare Asn.Set.compare a.conflicting_lists b.conflicting_lists
  | c -> c

let signature t =
  Printf.sprintf "%s|%s"
    (Prefix.to_string t.prefix)
    (String.concat ";" (List.map Moas_list.to_string t.conflicting_lists))

let pp fmt t =
  Format.fprintf fmt "ALARM at %a t=%.2f: prefix %a, conflicting MOAS lists %s"
    Asn.pp t.observer t.time Prefix.pp t.prefix
    (String.concat " vs " (List.map Moas_list.to_string t.conflicting_lists))

let to_string t = Format.asprintf "%a" pp t
