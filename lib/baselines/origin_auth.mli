(** Cryptographic origin/path authentication in the style of S-BGP
    (Kent et al., the paper's reference [14]) — the related-work baseline
    the paper positions itself against.

    The model abstracts the cryptography: a PKI registry holds the
    authorised origin set per prefix (address attestations), and a route
    "verifies" unless it carries the {!Attack.Attacker.impersonation_marker}
    — the simulation's stand-in for signatures that do not check out.  An
    attacker who has compromised the key of an authorised AS can, however,
    produce verifying forgeries: that is the single-point-of-failure the
    paper's Section 6 argues MOAS lists avoid. *)

open Net

type t
(** A PKI instance shared by all validating routers. *)

val create : ?compromised_keys:Asn.Set.t -> unit -> t
(** A PKI; [compromised_keys] are ASes whose private keys leaked to the
    adversary. *)

val register : t -> Prefix.t -> Asn.Set.t -> unit
(** Record the address attestation: the origin set authorised for a
    prefix. *)

val verifications : t -> int
(** Number of route verifications performed (every route, on every
    decision — unlike the MOAS scheme's on-conflict-only lookups). *)

val validator : t -> self:Asn.t -> Bgp.Router.validator
(** The per-router validation function: a candidate survives iff

    - its origin is authorised for the prefix (unknown prefixes fail open,
      as partial PKI coverage behaves), and
    - its signatures verify — i.e. it carries no impersonation marker, or
      the impersonated origin's key is compromised (the forgery then
      verifies perfectly and cannot be caught). *)
