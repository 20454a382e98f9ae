open Net

type t = {
  mutable attestations : Asn.Set.t Prefix.Map.t;
  mutable compromised : Asn.Set.t;
  mutable verifications : int;
}

let create ?(compromised_keys = Asn.Set.empty) () =
  {
    attestations = Prefix.Map.empty;
    compromised = compromised_keys;
    verifications = 0;
  }

let register t prefix origins =
  t.attestations <- Prefix.Map.add prefix origins t.attestations

let verifications t = t.verifications

let route_verifies t ~self route =
  t.verifications <- t.verifications + 1;
  let origin = Bgp.Route.origin_as ~self route in
  let origin_ok =
    match Prefix.Map.find_opt route.Bgp.Route.prefix t.attestations with
    | Some authorised -> Asn.Set.mem origin authorised
    | None -> true (* no attestation on file: fail open *)
  in
  let signature_ok =
    (not
       (Bgp.Community.Set.mem Attack.Attacker.impersonation_marker
          route.Bgp.Route.communities))
    || Asn.Set.mem origin t.compromised
  in
  origin_ok && signature_ok

(* [Route.filter] returns the list itself when every route verifies,
   which lets the router judge an UPDATE against its incumbent alone *)
let validator t ~self =
  Bgp.Router.scan_only (fun ~now:_ ~prefix:_ routes ->
      Bgp.Route.filter (route_verifies t ~self) routes)
