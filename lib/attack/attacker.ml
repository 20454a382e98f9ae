open Net

type forgery =
  | Forge_full_list
  | Claim_self_only
  | No_list
  | Impersonate of Asn.t

(* Simulation stand-in for "the route's signatures do not verify": a real
   forged announcement carries invalid attestations that an S-BGP checker
   would reject; the marker transports that fact through the simulation. *)
let impersonation_marker = Bgp.Community.make (Asn.make 65535) 0xfbad

type t = {
  asn : Asn.t;
  forgery : forgery;
  target_override : Prefix.t option;
}

let make ?(forgery = Forge_full_list) ?target_override asn =
  { asn; forgery; target_override }

let communities t ~legit_list =
  match t.forgery with
  | Forge_full_list -> Moas.Moas_list.encode (Asn.Set.add t.asn legit_list)
  | Claim_self_only -> Moas.Moas_list.encode (Asn.Set.singleton t.asn)
  | No_list -> Bgp.Community.Set.empty
  | Impersonate _ ->
    (* the impersonator replays the authentic announcement: identical MOAS
       list, plus the (meta) marker that its signatures are bogus *)
    Bgp.Community.Set.add impersonation_marker
      (Moas.Moas_list.encode legit_list)

let forged_path t =
  match t.forgery with
  | Impersonate victim_origin -> Bgp.As_path.of_list [ victim_origin ]
  | Forge_full_list | Claim_self_only | No_list -> Bgp.As_path.empty

let announced_prefix t ~victim =
  Option.value ~default:victim t.target_override
