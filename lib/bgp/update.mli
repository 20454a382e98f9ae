(** BGP UPDATE messages as exchanged between simulated speakers. *)

open Net

type payload =
  | Announce of Route.t  (** reachability with attributes *)
  | Withdraw of Prefix.t  (** loss of reachability *)

type t = {
  sender : Asn.t;
  payload : payload;
  route : Route.t option;
      (** the announced route, [None] for a withdrawal: built once with
          the message, it is what every receiver whose import policy
          takes the route unchanged files in its Adj-RIB-In *)
}
(** A message on the wire between two peers; build it with {!announce}
    or {!withdraw}. *)

val announce : sender:Asn.t -> Route.t -> t
(** Build an announcement. *)

val withdraw : sender:Asn.t -> Prefix.t -> t
(** Build a withdrawal. *)

val prefix : t -> Prefix.t
(** The prefix the update is about. *)
