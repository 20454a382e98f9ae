(** Alarms raised when a router observes inconsistent MOAS lists for the
    same prefix (Section 4.2: "it should generate an alarm signal"). *)

open Net

type t = {
  observer : Asn.t;        (** the AS whose router noticed the conflict *)
  prefix : Prefix.t;       (** the contested prefix *)
  time : float;            (** simulation time of detection *)
  conflicting_lists : Asn.Set.t list;
      (** the distinct MOAS lists seen, sorted for reproducibility *)
  origins_seen : Asn.Set.t;  (** every origin AS across the candidates *)
}

val make :
  observer:Asn.t ->
  prefix:Prefix.t ->
  time:float ->
  conflicting_lists:Asn.Set.t list ->
  origins_seen:Asn.Set.t ->
  t
(** Build an alarm, normalising the list order. *)

val signature : t -> string
(** A canonical rendering of (prefix, conflicting lists) used to
    de-duplicate repeated alarms for the same conflict. *)

val to_string : t -> string
(** {!pp} as a string. *)
