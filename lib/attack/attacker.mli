(** Attacker models (Section 5's fault/attack injection).

    An attacker AS originates a route to a victim prefix it cannot reach.
    Being an otherwise normal BGP speaker, it prefers its own origin route,
    so it also stops re-advertising valid routes — which is how compromised
    ASes "block" correct information in the paper's argument. *)

open Net

type forgery =
  | Forge_full_list
      (** attach the valid MOAS list plus itself — the strongest forgery of
          Section 4.1 (the lists still disagree, which is what detection
          keys on) *)
  | Claim_self_only  (** attach the list [{attacker}] *)
  | No_list  (** announce without any MOAS list *)
  | Impersonate of Asn.t
      (** path forgery (Section 4.3's manipulated AS path): announce with
          the victim's entitled origin at the path tail and a replayed MOAS
          list, which origin checks cannot distinguish from the real
          thing.  Used by the S-BGP comparison baseline. *)

val impersonation_marker : Bgp.Community.t
(** Simulation metadata standing in for "the route's signatures do not
    verify": attached to impersonated announcements so that a
    cryptographic-validation baseline can model rejecting them. *)

type t = {
  asn : Asn.t;  (** the compromised AS *)
  forgery : forgery;
  target_override : Prefix.t option;
      (** [Some q] makes the attacker announce [q] instead of the victim
          prefix — with a longer [q] this is the sub-prefix hijack of
          Section 4.3, which MOAS checking does not catch *)
}

val make : ?forgery:forgery -> ?target_override:Prefix.t -> Asn.t -> t
(** An attacker with the default (strongest) forgery. *)

val communities : t -> legit_list:Asn.Set.t -> Bgp.Community.Set.t
(** The communities the attacker attaches to its bogus announcement. *)

val forged_path : t -> Bgp.As_path.t
(** The AS path the attacker pretends to have (empty except for
    {!Impersonate}). *)

val announced_prefix : t -> victim:Prefix.t -> Prefix.t
(** The prefix the attacker actually announces. *)
