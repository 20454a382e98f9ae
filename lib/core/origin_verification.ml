open Net

type t = {
  mutable records : Asn.Set.t Prefix.Map.t;
  mutable queries : int;
}

let create () = { records = Prefix.Map.empty; queries = 0 }

let register t prefix origins =
  t.records <- Prefix.Map.add prefix origins t.records

let peek t prefix = Prefix.Map.find_opt prefix t.records

let query t prefix =
  t.queries <- t.queries + 1;
  peek t prefix

let entitled t prefix asn =
  match query t prefix with
  | Some origins -> Asn.Set.mem asn origins
  | None -> false

let query_count t = t.queries
