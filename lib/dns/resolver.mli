(** An iterative DNS resolver with a TTL cache and a reachability hook.

    The hook is the point of the module: every query to a name server
    first has to REACH that server, and reachability is supplied by the
    caller — in the MOAS experiments it follows the querying AS's own BGP
    forwarding.  This models the circular dependency the paper raises
    against DNS-based origin verification ("given that DNS operations rely
    on the routing to function correctly...", Section 2): a hijack that
    captures the name server's prefix silently breaks the verification
    channel. *)

open Net

type server = { name : Domain.t; address : Ipv4.t; zone : Zone.t }
(** An authoritative server instance. *)

type config = {
  roots : server list;  (** root hints *)
  servers : server list;  (** every other authoritative server *)
  reach : Ipv4.t -> bool;
      (** can the resolver currently reach this server address? *)
  max_referrals : int;  (** delegation-chase budget (default 16) *)
}

val config :
  ?max_referrals:int ->
  ?reach:(Ipv4.t -> bool) ->
  roots:server list ->
  servers:server list ->
  unit ->
  config
(** Build a configuration; by default everything is reachable. *)

type t
(** Resolver state (cache and counters). *)

val create : config -> t
(** A fresh resolver. *)

type error =
  | Unreachable of Domain.t
      (** every candidate server for this step was unreachable *)
  | Nxdomain
  | No_data
  | Referral_limit

val lookup_moasrr :
  t -> now:float -> Prefix.t -> (Asn.Set.t option, error) result
(** The paper's verification query: the MOASRR record set for a prefix's
    in-addr.arpa name.  [Ok None] means the name resolved but carries no
    MOASRR (fail-open case). *)

val queries_sent : t -> int
(** Server contacts attempted (cache hits excluded). *)
