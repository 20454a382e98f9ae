(** The labelled scenario corpus — layer 2's consumer.

    A corpus is a deterministic grid of {!Collect.Scenario} captures —
    every {!Collect.Scenario.arm} crossed with a topology/mesh-size
    grid — pushed through the collector mesh and labelled by the
    {!Baselines.Roa_registry} ground-truth oracle: an episode is a
    positive example iff the registry validates its origin set
    [Invalid].  Captures run in parallel on {!Exec.Pool} with
    per-run seeds pre-split by run index, so the example list is
    byte-identical at any job count and independent of scheduling. *)

type example = {
  ex_arm : Collect.Scenario.arm;
  ex_run : int;  (** index of the capture this episode came from *)
  ex_entry : Collect.Correlator.entry;
  ex_features : float array;  (** {!Features.extract} under the run's context *)
  ex_label : bool;  (** true iff the ROA oracle says [Invalid] *)
  ex_validity : Baselines.Roa_registry.validity;
  ex_moas_flagged : bool;  (** the MOAS-list detector's verdict *)
}

type t = {
  c_examples : example list;
      (** canonical order: run index, then prefix, then episode seq *)
  c_runs : int;  (** captures performed *)
}

val build :
  ?metrics:Obs.Registry.t ->
  ?jobs:int ->
  smoke:bool ->
  seed:int64 ->
  unit ->
  t
(** Capture and label the grid.  [smoke] restricts to the 25-AS topology
    with 3- and 4-vantage meshes (6 captures); the full grid crosses all
    three paper topologies with both mesh sizes (18 captures).
    Deterministic from [seed] alone. *)

val split : t -> example list * example list
(** (train, eval): captures with even run index train, odd evaluate —
    both halves cover every arm and topology. *)

val positives : example list -> int
(** Labelled-invalid examples. *)
