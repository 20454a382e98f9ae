open Net

type t = {
  q_prefix : Prefix.t option;
  q_covered : bool;
  q_origin : Asn.t option;
  q_since : int option;
  q_until : int option;
  q_min_visibility : int option;
  q_bucket : Stream.Monitor.bucket option;
}

exception Corrupt of string

let empty =
  {
    q_prefix = None;
    q_covered = false;
    q_origin = None;
    q_since = None;
    q_until = None;
    q_min_visibility = None;
    q_bucket = None;
  }

let nonneg what v =
  if v < 0 then
    invalid_arg (Printf.sprintf "Collect.Query: negative %s %d" what v);
  v

let prefix p q = { q with q_prefix = Some p }
let covered q = { q with q_covered = true }
let origin a q = { q with q_origin = Some a }
let since v q = { q with q_since = Some (nonneg "since" v) }
let until v q = { q with q_until = Some (nonneg "until" v) }

(* the wire form stores the floor as a u32 *)
let max_visibility = 0xFFFF_FFFF

let min_visibility v q =
  if v > max_visibility then
    invalid_arg
      (Printf.sprintf "Collect.Query: min_visibility %d above %d" v
         max_visibility);
  { q with q_min_visibility = Some (nonneg "min_visibility" v) }

let bucket b q = { q with q_bucket = Some b }

(* one bucket definition: the Stream.Monitor Section 3 boundaries on the
   default config (short <= 1 observed day < medium <= 60 < long) *)
let entry_bucket (e : Correlator.entry) =
  Stream.Monitor.bucket_of_days Stream.Monitor.default_config
    e.Correlator.x_days

let target q = q.q_prefix
let wants_covered q = q.q_covered
let origin_filter q = q.q_origin
let since_bound q = q.q_since
let until_bound q = q.q_until
let visibility_floor q = q.q_min_visibility
let compare = Stdlib.compare
let equal a b = compare a b = 0

let matches q (e : Correlator.entry) =
  let hi = Option.value e.Correlator.x_ended ~default:max_int in
  (match q.q_prefix with
  | None -> true
  | Some p when q.q_covered -> Prefix.subsumes p e.Correlator.x_prefix
  | Some p -> Prefix.compare p e.Correlator.x_prefix = 0)
  && (match q.q_origin with
     | Some a -> Asn.Set.mem a e.Correlator.x_origins
     | None -> true)
  && (match q.q_since with Some s -> hi >= s | None -> true)
  && (match q.q_until with Some u -> e.Correlator.x_started <= u | None -> true)
  && (match q.q_min_visibility with
     | Some k -> Correlator.visibility e >= k
     | None -> true)
  && (match q.q_bucket with
     | Some b -> Stream.Monitor.compare_bucket (entry_bucket e) b = 0
     | None -> true)

(* ------------------------------------------------------------------ *)
(* One parser *)

let parse s =
  let parse_clause q clause =
    match String.index_opt clause '=' with
    | None -> Error (Printf.sprintf "clause %S is not key=value" clause)
    | Some i -> (
      let key = String.sub clause 0 i in
      let value = String.sub clause (i + 1) (String.length clause - i - 1) in
      let nonneg_int name =
        match int_of_string_opt value with
        | Some v when v >= 0 -> Ok v
        | Some _ ->
          Error (Printf.sprintf "%s=%S must be non-negative" name value)
        | None -> Error (Printf.sprintf "%s=%S is not an integer" name value)
      in
      match key with
      | "prefix" -> (
        match Prefix.of_string value with
        | p -> Ok (prefix p q)
        | exception _ -> Error (Printf.sprintf "bad prefix %S" value))
      | "covered" -> (
        match bool_of_string_opt value with
        | Some b -> Ok { q with q_covered = b }
        | None -> Error (Printf.sprintf "covered=%S is not a boolean" value))
      | "origin" -> (
        match int_of_string_opt value with
        | Some v -> (
          try Ok (origin (Asn.make v) q)
          with Invalid_argument _ -> Error (Printf.sprintf "bad AS %S" value))
        | None -> Error (Printf.sprintf "origin=%S is not an AS number" value))
      | "since" -> Result.map (fun v -> since v q) (nonneg_int "since")
      | "until" -> Result.map (fun v -> until v q) (nonneg_int "until")
      | "min_visibility" ->
        Result.bind (nonneg_int "min_visibility") (fun v ->
            if v > max_visibility then
              Error
                (Printf.sprintf "min_visibility=%S is above %d" value
                   max_visibility)
            else Ok (min_visibility v q))
      | "bucket" ->
        Result.map
          (fun b -> bucket b q)
          (Stream.Monitor.bucket_of_string value)
      | _ -> Error (Printf.sprintf "unknown query key %S" key))
  in
  let clauses =
    List.filter (fun c -> c <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left
    (fun acc clause -> Result.bind acc (fun q -> parse_clause q clause))
    (Ok empty) clauses

(* ------------------------------------------------------------------ *)
(* One printer *)

let to_string q =
  let clause key value rest = Printf.sprintf "%s=%s" key value :: rest in
  let opt key show o rest =
    match o with None -> rest | Some v -> clause key (show v) rest
  in
  String.concat ","
    (opt "prefix" Prefix.to_string q.q_prefix
       ((if q.q_covered then clause "covered" "true" else Fun.id)
          (opt "origin"
             (fun a -> string_of_int (Asn.to_int a))
             q.q_origin
             (opt "since" string_of_int q.q_since
                (opt "until" string_of_int q.q_until
                   (opt "min_visibility" string_of_int q.q_min_visibility
                      (opt "bucket" Stream.Monitor.bucket_to_string q.q_bucket
                         [])))))))

(* ------------------------------------------------------------------ *)
(* One binary codec *)

let bucket_tag = function
  | Stream.Monitor.Short -> 0
  | Stream.Monitor.Medium -> 1
  | Stream.Monitor.Long -> 2

let bucket_of_tag c = function
  | 0 -> Stream.Monitor.Short
  | 1 -> Stream.Monitor.Medium
  | 2 -> Stream.Monitor.Long
  | n -> Codec.corrupt c "bad bucket tag %d" n

let write buf q =
  Codec.put_option buf Codec.put_prefix q.q_prefix;
  Codec.put_bool buf q.q_covered;
  Codec.put_option buf Codec.put_asn q.q_origin;
  Codec.put_option buf Codec.put_i63 q.q_since;
  Codec.put_option buf Codec.put_i63 q.q_until;
  Codec.put_option buf Codec.put_u32 q.q_min_visibility;
  Codec.put_option buf
    (fun buf b -> Codec.put_u8 buf (bucket_tag b))
    q.q_bucket

let read c =
  let q_prefix = Codec.take_option c Codec.take_prefix in
  let q_covered = Codec.take_bool c in
  let q_origin = Codec.take_option c Codec.take_asn in
  let q_since = Codec.take_option c Codec.take_i63 in
  let q_until = Codec.take_option c Codec.take_i63 in
  let q_min_visibility = Codec.take_option c Codec.take_u32 in
  let q_bucket =
    Codec.take_option c (fun c -> bucket_of_tag c (Codec.take_u8 c))
  in
  {
    q_prefix;
    q_covered;
    q_origin;
    q_since;
    q_until;
    q_min_visibility;
    q_bucket;
  }

let encode q =
  let buf = Buffer.create 32 in
  write buf q;
  Buffer.to_bytes buf

let decode data =
  let c = Codec.cursor ~fail:(fun m -> Corrupt m) data in
  let q = read c in
  Codec.expect_end c;
  q
