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

val compare_conflict : t -> t -> int
(** Order alarms on their conflict, (prefix, conflicting lists), ignoring
    observer, time and origins: [0] for two alarms about the same
    conflict, the key a detector de-duplicates repeated alarms on. *)

val signature : t -> string
(** A canonical rendering of (prefix, conflicting lists): equal exactly
    when {!compare_conflict} returns [0], as [Prefix.to_string] and
    [Moas_list.to_string] are injective. *)

val to_string : t -> string
(** {!pp} as a string. *)
