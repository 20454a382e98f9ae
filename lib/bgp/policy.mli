(** Import and export policies applied by a BGP speaker around the decision
    process.  Policies are plain functions, so experiments can model
    community-stripping routers (Section 4.3) or arbitrary filters. *)

open Net

type t = {
  import : peer:Asn.t -> Route.t -> Route.t option;
      (** Applied to a route received from [peer]; [None] rejects it.  The
          result must keep the route's [learned_from] ([peer]): the
          Adj-RIB-In files a route under it. *)
  export : peer:Asn.t -> Route.t -> Route.t option;
      (** Applied before advertising a route to [peer]; [None] filters it. *)
}

val default : t
(** Accept and propagate everything unchanged. *)

val imports_unchanged : t -> bool
(** Whether the policy's import is {!default}'s, which accepts every
    route unchanged: a router then files a received route without
    calling it (see {!Update.t}). *)

val exports_unchanged : t -> bool
(** Whether the policy's export is {!default}'s: a router then sends its
    best route without calling it. *)

val drop_communities_on_export : t -> t
(** A router that strips the optional transitive community attribute from
    every route it re-advertises — the deployment hazard the paper
    discusses in Section 4.3 (it may cause false alarms downstream but must
    never make an invalid MOAS look valid). *)

val reject_import_when : (peer:Asn.t -> Route.t -> bool) -> t -> t
(** Add an import reject predicate in front of an existing policy. *)

val compose_export : (peer:Asn.t -> Route.t -> Route.t option) -> t -> t
(** Chain an extra export transformation after the existing one. *)
