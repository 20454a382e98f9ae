(** Train/eval harness and report — layer 4 of the classifier.

    Splits the {!Corpus} by run parity, trains both {!Model}s on the
    train half, and scores four detectors on the eval half:

    - ["logistic"] — logistic regression at the {!Model.flag_threshold}
      operating point;
    - ["stumps"] — the boosted stump ensemble at the same threshold;
    - ["moas-list"] — the paper's MOAS-list consistency check (flag iff
      the episode was not validated by agreeing lists), the baseline the
      learned models must beat on the false-alarm axis;
    - ["always-flag"] — flag every MOAS episode, the alarm-fatigue
      strawman.

    Every number in the report derives from the corpus alone, so the
    rendered report is byte-identical at any [--jobs] setting — CI
    asserts this. *)

type arm_report = {
  ar_arm : Collect.Scenario.arm;
  ar_examples : int;  (** eval examples from this arm *)
  ar_positives : int;
  ar_detectors : (string * Mutil.Stats.confusion) list;
      (** fixed detector order: logistic, stumps, moas-list, always-flag *)
}

type report = {
  r_runs : int;
  r_train : int;
  r_train_positives : int;
  r_eval : int;
  r_eval_positives : int;
  r_arms : arm_report list;  (** in {!Collect.Scenario.all_arms} order *)
  r_overall : (string * Mutil.Stats.confusion) list;
  r_auc_logistic : float;  (** rank AUC of the logistic scores on eval *)
  r_auc_stumps : float;
  r_verdicts : (Model.verdict * int) list;
      (** logistic verdict-band counts over the eval half *)
  r_stump_rounds : int;
  r_weights : (string * float) array;  (** learned logistic weights *)
}

type evaluation = {
  ev_corpus : Corpus.t;
  ev_logistic : Model.logistic;
  ev_report : report;
}

val evaluate :
  ?metrics:Obs.Registry.t ->
  ?jobs:int ->
  smoke:bool ->
  seed:int64 ->
  unit ->
  evaluation
(** Build the corpus (in parallel), train, evaluate.  Deterministic from
    [seed] and [smoke]. *)

val render : report -> string
(** The full text report (tables via {!Mutil.Text_table}). *)

val features_csv : Corpus.t -> string
(** The labelled feature matrix as CSV: identification columns (arm,
    run, prefix, episode seq, label, validity, MOAS-list verdict)
    followed by the {!Features.names} columns, one row per example in
    canonical corpus order. *)
