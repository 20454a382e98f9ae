(** Resource records and authoritative zones. *)

open Net

type rdata =
  | A of Ipv4.t  (** address record *)
  | Ns of Domain.t  (** delegation to a name server *)
  | Moasrr of Asn.Set.t
      (** the paper's proposed record type: the origin ASes entitled to a
          prefix (Section 4.4) *)

type rr = { name : Domain.t; ttl : int; rdata : rdata }
(** One resource record. *)

type t
(** An authoritative zone. *)

val create : apex:Domain.t -> t
(** An empty zone rooted at [apex]. *)

val add : t -> rr -> t
(** Add a record.  @raise Invalid_argument if the record's name is not at
    or under the apex. *)

type answer =
  | Answer of rr list  (** authoritative data for the query *)
  | Delegation of Domain.t * rr list
      (** the query belongs to a delegated child zone: NS records (and any
          glue A records the zone holds for those servers) *)
  | Name_error  (** authoritative denial *)

val lookup : t -> Domain.t -> qtype:[ `A | `Ns | `Moasrr ] -> answer
(** Authoritative lookup.  A delegation is returned when an NS record
    exists at a name strictly between the apex and the query name. *)
