(** Shared helpers for the test suites: route constructors, Alcotest
    testables, and qcheck generators for the domain types. *)

open Net

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal
let route_testable = Alcotest.testable Bgp.Route.pp Bgp.Route.equal

let asn_set_testable =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt
        ("{"
        ^ String.concat "," (List.map string_of_int (Asn.Set.elements s))
        ^ "}"))
    Asn.Set.equal

let victim = Prefix.of_string "192.0.2.0/24"

(* A route as received from [peer], with the path [path] (first element =
   sending AS, last = origin). *)
let route ?(prefix = victim) ?(local_pref = 100) ?(origin = Bgp.Route.Igp)
    ?(communities = Bgp.Community.Set.empty) ~from path =
  {
    Bgp.Route.prefix;
    as_path = Bgp.As_path.of_list path;
    origin;
    learned_from = Asn.make from;
    local_pref;
    communities;
  }

let moas_communities ases = Moas.Moas_list.encode (Asn.Set.of_list ases)

(* qcheck generators *)

let asn_gen = QCheck2.Gen.int_range 1 65535

let ipv4_gen = QCheck2.Gen.map Ipv4.of_int (QCheck2.Gen.int_range 0 0xffffffff)

let prefix_gen =
  QCheck2.Gen.map2
    (fun addr len -> Prefix.make addr len)
    ipv4_gen
    (QCheck2.Gen.int_range 0 32)

let asn_set_gen =
  QCheck2.Gen.map Asn.Set.of_list (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 6) asn_gen)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* a tiny deterministic graph used by several suites:

      1 --- 2 --- 3
       \         /
        4 ----- 5          plus stub 6 hanging off 3          *)
let small_graph () =
  Topology.As_graph.of_edges
    [ (1, 2); (2, 3); (1, 4); (4, 5); (5, 3); (3, 6) ]

(* run a scenario and return the outcome, with fixed randomness *)
let run_scenario ?(seed = 42) scenario =
  Attack.Scenario.run (Mutil.Rng.of_int seed) scenario

(* substring search, for asserting on rendered reports *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec scan i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else scan (i + 1)
    in
    scan 0
  end

let check_contains ?(what = "output") haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s does not contain %S:\n%s" what needle haystack

(* the fastest of five timed runs, for the linear-decode bounds *)
let best_of_five f =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* A Codec.Frame whose payload a test edited in place, with its
   checksum made good again: the CRC-32 at octet 14 covers the kind
   octet (9) and the payload (from 18), so a lie in a count field
   reaches the payload's decoder instead of failing at the checksum. *)
let reseal frame =
  let kind = Net.Codec.crc32 frame ~pos:9 ~len:1 in
  let crc = Net.Codec.crc32 ~seed:kind frame ~pos:18 ~len:(Bytes.length frame - 18) in
  Bytes.set_int32_be frame 14 (Int32.of_int crc)

(* the store [moas_sim collect --smoke --store FILE] writes *)
let collect_smoke_store =
  lazy
    (let capture =
       Collect.Scenario.capture ~seed:0xC011EC7L ~vantages:3
         (Topology.Paper_topologies.topology_25 ())
     in
     let config = { Stream.Monitor.default_config with Stream.Monitor.window = 10_000 } in
     Collect.Store.of_correlation
       (Collect.Correlator.of_result
          (Collect.Mesh.run config capture.Collect.Scenario.s_streams)))

(* The synthetic archive as daily table dumps, for the table-based test
   references: the generator's deltas folded into one table, every row
   listed in row order (the first observed day lists them all).
   Single-pass, like [delta_seq]. *)
module Srv = Measurement.Synthetic_routeviews

type day_dump = { day : Mutil.Day.t; table : (Prefix.t * Asn.Set.t) list }

let dump_seq params =
  let rows = Array.make params.Srv.universe_size None in
  Seq.map
    (fun (d : Srv.day_delta) ->
      List.iter
        (fun (c : Srv.change) -> rows.(c.Srv.row) <- Some (c.Srv.prefix, c.Srv.after))
        d.Srv.changes;
      { day = d.Srv.delta_day; table = List.filter_map Fun.id (Array.to_list rows) })
    (Srv.delta_seq params)

let fold_dumps params ~init ~f = Seq.fold_left f init (dump_seq params)

(* the naive MOAS reference model (test/util/reference.ml) *)
module Reference = Reference
