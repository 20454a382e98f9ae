(** Per-episode feature extraction — layer 1 of the classifier.

    Every feature is computed from a {!Collect.Correlator.entry} plus a
    {!context} of capture-level facts the entry itself does not carry
    (mesh size, capture span, announce/withdraw churn, AS business
    relationships).  Extraction is a pure function of (context, entry),
    so for a fixed context the feature vector survives a [MOASSTOR]
    store round-trip byte-for-byte — a property the test suite checks.

    The vector layout is fixed and named by {!names}; models, the CSV
    export and the report all share it. *)

open Net

type context = {
  cx_vantages : int;  (** mesh size [N], for the visibility fraction *)
  cx_span : int;  (** capture end time (ms); scales times to fractions *)
  cx_churn : int Prefix.Map.t;
      (** per-prefix event count over the merged stream *)
  cx_relationships : Topology.Relationships.t option;
      (** business relationships, for the origin-pair feature *)
}

val of_scenario :
  ?relationships:Topology.Relationships.t -> Collect.Scenario.t -> context
(** The context a captured scenario implies. *)

val names : string array
(** Feature names, in vector order. *)

val dim : int
(** [Array.length names]. *)

val extract : context -> Collect.Correlator.entry -> float array
(** The feature vector of one episode; length {!dim}. *)
