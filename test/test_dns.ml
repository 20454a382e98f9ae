(* Tests for the DNS substrate (Domain, Zone, Resolver) and the
   circular-dependency study. *)

open Net
module Domain = Dnssim.Domain
module Zone = Dnssim.Zone
module Resolver = Dnssim.Resolver

let d = Domain.of_string

let test_domain_parse_print () =
  Alcotest.(check string) "simple" "www.example.com"
    (Domain.to_string (d "www.example.com"));
  Alcotest.(check string) "trailing dot" "example.com"
    (Domain.to_string (d "example.com."));
  Alcotest.(check string) "case folded" "example.com"
    (Domain.to_string (d "ExAmPlE.CoM"));
  Alcotest.(check string) "root" "." (Domain.to_string Domain.root);
  Alcotest.(check bool) "root parses" true (Domain.equal (d ".") Domain.root)

let test_domain_structure () =
  let name = d "www.example.com" in
  Alcotest.(check (list string)) "labels" [ "www"; "example"; "com" ]
    (Domain.labels name);
  Alcotest.(check (option string)) "parent" (Some "example.com")
    (Option.map Domain.to_string (Domain.parent name));
  Alcotest.(check bool) "suffix" true (Domain.is_suffix ~suffix:(d "com") name);
  Alcotest.(check bool) "not suffix" false
    (Domain.is_suffix ~suffix:(d "org") name);
  Alcotest.(check bool) "everything under root" true
    (Domain.is_suffix ~suffix:Domain.root name);
  Alcotest.(check string) "prepend" "mail.example.com"
    (Domain.to_string (Domain.prepend "mail" (d "example.com")))

let test_domain_validation () =
  Alcotest.check_raises "empty label" (Invalid_argument "Domain: empty label")
    (fun () -> ignore (d "a..b"))

let test_reverse_of_prefix () =
  Alcotest.(check string) "/24" "2.0.192.in-addr.arpa"
    (Domain.to_string (Domain.reverse_of_prefix (Prefix.of_string "192.0.2.0/24")));
  Alcotest.(check string) "/16" "2.10.in-addr.arpa"
    (Domain.to_string (Domain.reverse_of_prefix (Prefix.of_string "10.2.0.0/16")));
  Alcotest.(check string) "/8" "10.in-addr.arpa"
    (Domain.to_string (Domain.reverse_of_prefix (Prefix.of_string "10.0.0.0/8")))

let moasrr origins = Zone.Moasrr (Asn.Set.of_list origins)

let example_zone () =
  Zone.create ~apex:(d "example.com")
  |> (fun z ->
       Zone.add z
         { Zone.name = d "www.example.com"; ttl = 60; rdata = Zone.A (Ipv4.of_string "10.0.0.1") })
  |> (fun z ->
       Zone.add z
         { Zone.name = d "sub.example.com"; ttl = 60; rdata = Zone.Ns (d "ns.sub.example.com") })
  |> fun z ->
  Zone.add z
    { Zone.name = d "ns.sub.example.com"; ttl = 60; rdata = Zone.A (Ipv4.of_string "10.0.0.53") }

let test_zone_lookup () =
  let zone = example_zone () in
  (match Zone.lookup zone (d "www.example.com") ~qtype:`A with
  | Zone.Answer [ rr ] ->
    Alcotest.(check bool) "answer" true (rr.Zone.rdata = Zone.A (Ipv4.of_string "10.0.0.1"))
  | _ -> Alcotest.fail "expected an answer");
  (match Zone.lookup zone (d "nope.example.com") ~qtype:`A with
  | Zone.Name_error -> ()
  | _ -> Alcotest.fail "expected NXDOMAIN");
  (* a name below a delegation produces a referral with glue *)
  match Zone.lookup zone (d "deep.sub.example.com") ~qtype:`A with
  | Zone.Delegation (cut, rrs) ->
    Alcotest.(check string) "cut point" "sub.example.com" (Domain.to_string cut);
    Alcotest.(check bool) "glue included" true
      (List.exists
         (fun rr -> match rr.Zone.rdata with Zone.A _ -> true | _ -> false)
         rrs)
  | _ -> Alcotest.fail "expected a delegation"

let test_zone_rejects_foreign_names () =
  Alcotest.check_raises "out of zone"
    (Invalid_argument "Zone.add: other.org outside zone example.com") (fun () ->
      ignore
        (Zone.add (Zone.create ~apex:(d "example.com"))
           { Zone.name = d "other.org"; ttl = 60; rdata = moasrr [ 1 ] }))

(* a two-level MOASRR tree as used by the study *)
let victim = Testutil.victim
let arpa_addr = Ipv4.of_string "199.7.0.42"
let root_addr = Ipv4.of_string "198.41.0.4"

let setup ?reach () =
  let arpa_apex = d "in-addr.arpa" in
  let arpa_ns = d "ns.registry.net" in
  let root_zone =
    Zone.create ~apex:Domain.root
    |> (fun z -> Zone.add z { Zone.name = arpa_apex; ttl = 300; rdata = Zone.Ns arpa_ns })
    |> fun z -> Zone.add z { Zone.name = arpa_ns; ttl = 300; rdata = Zone.A arpa_addr }
  in
  let arpa_zone =
    Zone.create ~apex:arpa_apex
    |> fun z ->
    Zone.add z
      {
        Zone.name = Domain.reverse_of_prefix victim;
        ttl = 300;
        rdata = moasrr [ 4; 226 ];
      }
  in
  let roots = [ { Resolver.name = d "a.root"; address = root_addr; zone = root_zone } ] in
  let servers = [ { Resolver.name = arpa_ns; address = arpa_addr; zone = arpa_zone } ] in
  Resolver.create (Resolver.config ?reach ~roots ~servers ())

let test_resolver_moasrr () =
  let r = setup () in
  (match Resolver.lookup_moasrr r ~now:0.0 victim with
  | Ok (Some origins) ->
    Alcotest.check Testutil.asn_set_testable "origins" (Asn.Set.of_list [ 4; 226 ]) origins
  | _ -> Alcotest.fail "expected a MOASRR answer");
  Alcotest.(check int) "two server contacts (root + arpa)" 2
    (Resolver.queries_sent r)

let test_resolver_cache () =
  let r = setup () in
  ignore (Resolver.lookup_moasrr r ~now:0.0 victim);
  ignore (Resolver.lookup_moasrr r ~now:10.0 victim);
  Alcotest.(check int) "second lookup from cache" 2 (Resolver.queries_sent r);
  (* after the TTL the resolver re-queries *)
  ignore (Resolver.lookup_moasrr r ~now:1000.0 victim);
  Alcotest.(check int) "expired entry re-queried" 4 (Resolver.queries_sent r)

let test_resolver_no_data_fails_open () =
  let r = setup () in
  match Resolver.lookup_moasrr r ~now:0.0 (Prefix.of_string "203.0.113.0/24") with
  | Ok None | Error Resolver.Nxdomain -> ()
  | Ok (Some _) -> Alcotest.fail "unexpected record"
  | Error _ -> Alcotest.fail "unexpected error"

let test_resolver_unreachable () =
  (* the arpa server is unreachable: resolution must fail, not hang *)
  let r = setup ~reach:(fun addr -> not (Ipv4.equal addr arpa_addr)) () in
  (match Resolver.lookup_moasrr r ~now:0.0 victim with
  | Error (Resolver.Unreachable _) -> ()
  | Ok _ -> Alcotest.fail "resolved through an unreachable server"
  | Error _ -> Alcotest.fail "unexpected error");
  (* the root unreachable: same *)
  let r = setup ~reach:(fun _ -> false) () in
  match Resolver.lookup_moasrr r ~now:0.0 victim with
  | Error (Resolver.Unreachable _) -> ()
  | _ -> Alcotest.fail "expected unreachable"

let test_forward_path () =
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let net = Bgp.Network.make g in
  let p = Prefix.of_string "10.0.0.0/8" in
  Bgp.Network.originate net 1 p;
  ignore (Bgp.Network.run net);
  let host = Ipv4.of_string "10.1.2.3" in
  Alcotest.(check (option (list int))) "hop-by-hop path"
    (Some [ 4; 3; 2; 1 ])
    (Bgp.Network.forward_path net ~from:4 host);
  Alcotest.(check (option int)) "delivered at the origin" (Some 1)
    (Bgp.Network.delivered_to net ~from:4 host);
  Alcotest.(check (option int)) "no route, no delivery" None
    (Bgp.Network.delivered_to net ~from:4 (Ipv4.of_string "203.0.113.9"))

let test_forward_path_follows_hijack () =
  (* with a hijack in place, forwarding lands at the attacker: the exact
     mechanism behind both Section 3.3 and the DNS study *)
  let g = Topology.As_graph.of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let net = Bgp.Network.make g in
  let p = Prefix.of_string "10.0.0.0/8" in
  Bgp.Network.originate ~at:0.0 net 1 p;
  Bgp.Network.originate ~at:50.0 net 4 p;
  ignore (Bgp.Network.run net);
  Alcotest.(check (option int)) "AS3 captured" (Some 4)
    (Bgp.Network.delivered_to net ~from:3 (Ipv4.of_string "10.0.0.1"))

let test_dns_study_shape () =
  let t = Topology.Paper_topologies.topology_46 () in
  let points = Experiments.Dns_study.study ~runs:4 ~topology:t () in
  match points with
  | [ oracle; dns; hijack ] ->
    Alcotest.(check bool) "oracle condition is the reference" true
      (oracle.Experiments.Dns_study.condition = Experiments.Dns_study.Oracle);
    (* intact DNS matches the oracle's protection *)
    Alcotest.(check (float 1e-9)) "intact DNS = oracle protection"
      oracle.Experiments.Dns_study.mean_adopting
      dns.Experiments.Dns_study.mean_adopting;
    Alcotest.(check bool) "DNS actually queried" true
      (dns.Experiments.Dns_study.mean_dns_queries > 0.0);
    (* the circular dependency hurts *)
    Alcotest.(check bool) "DNS hijack weakens detection" true
      (hijack.Experiments.Dns_study.mean_adopting
      > dns.Experiments.Dns_study.mean_adopting);
    Alcotest.(check bool) "failed lookups observed" true
      (hijack.Experiments.Dns_study.mean_failed_lookups > 0.0)
  | _ -> Alcotest.fail "expected three conditions"

let () =
  Alcotest.run "dns"
    [
      ( "domain",
        [
          Alcotest.test_case "parse/print" `Quick test_domain_parse_print;
          Alcotest.test_case "structure" `Quick test_domain_structure;
          Alcotest.test_case "validation" `Quick test_domain_validation;
          Alcotest.test_case "in-addr.arpa" `Quick test_reverse_of_prefix;
        ] );
      ( "zone",
        [
          Alcotest.test_case "lookup" `Quick test_zone_lookup;
          Alcotest.test_case "foreign names" `Quick test_zone_rejects_foreign_names;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "MOASRR resolution" `Quick test_resolver_moasrr;
          Alcotest.test_case "cache + TTL" `Quick test_resolver_cache;
          Alcotest.test_case "no data" `Quick test_resolver_no_data_fails_open;
          Alcotest.test_case "unreachable servers" `Quick test_resolver_unreachable;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "forward path" `Quick test_forward_path;
          Alcotest.test_case "hijacked forwarding" `Quick test_forward_path_follows_hijack;
        ] );
      ( "study",
        [ Alcotest.test_case "circular dependency" `Quick test_dns_study_shape ] );
    ]
