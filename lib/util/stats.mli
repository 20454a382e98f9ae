(** Small descriptive-statistics toolkit used by the experiment harness and
    the measurement pipeline. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val mean_array : float array -> float
(** Arithmetic mean of an array; 0 for the empty array. *)

val variance : float list -> float
(** Unbiased sample variance (n-1 denominator); 0 for fewer than 2 points. *)

val stddev : float list -> float
(** Square root of {!variance}. *)

val stderr_of_mean : float list -> float
(** Standard error of the mean: stddev / sqrt n. *)

val median : float list -> float
(** Median (average of middle two for even length); 0 for the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], nearest-rank with linear
    interpolation; 0 for the empty list. *)

val min_max : float list -> float * float
(** Smallest and largest value.  @raise Invalid_argument on empty input. *)

type histogram = { bucket_edges : float array; counts : int array }
(** A histogram with [n+1] edges delimiting [n] buckets; bucket [i] counts
    values in [[edges.(i), edges.(i+1))], the last bucket being closed. *)

val histogram : edges:float array -> float list -> histogram
(** Build a histogram from explicit bucket edges (strictly increasing).
    Values outside the range are clamped into the first/last bucket. *)

val int_histogram : max_value:int -> int list -> int array
(** [int_histogram ~max_value xs] counts occurrences of each value in
    [0..max_value]; larger values land in the last slot. *)

(** {2 Binary-classification metrics}

    Shared by the episode classifier ({!Classify.Eval}), the ablations and
    the robustness sweeps, replacing their ad-hoc hit/miss arithmetic.
    The positive class is the {e flagged} one (an attack, an invalid
    episode); conventions for empty denominators are documented per
    metric and chosen so a detector that never fires on a corpus with no
    positives scores perfectly rather than dividing by zero. *)

type confusion = { tp : int; fp : int; tn : int; fn : int }
(** Counts of (truth, prediction) pairs: [tp] true positives, [fp] false
    positives, [tn] true negatives, [fn] false negatives. *)

val no_confusion : confusion
(** All four counts zero. *)

val confusion_add : confusion -> truth:bool -> flagged:bool -> confusion
(** Credit one prediction. *)

val confusion : (bool * bool) list -> confusion
(** Tally a list of [(truth, flagged)] pairs. *)

val precision : confusion -> float
(** [tp / (tp + fp)]; [1.0] when nothing was flagged (no flag, no false
    alarm). *)

val recall : confusion -> float
(** [tp / (tp + fn)]; [1.0] when there are no positives to find. *)

val f1 : confusion -> float
(** Harmonic mean of {!precision} and {!recall}; [0.0] when both are 0. *)

val accuracy : confusion -> float
(** [(tp + tn) / total]; [1.0] on an empty confusion. *)

val fallout : confusion -> float
(** False-positive rate [fp / (fp + tn)]; [0.0] when there are no
    negatives. *)

val miss_rate : confusion -> float
(** [fn / (tp + fn)] = [1 - recall]; [0.0] when there are no positives. *)

val auc : (float * bool) list -> float
(** Area under the ROC curve of scored predictions [(score, truth)],
    computed by the exact Mann-Whitney rank statistic: tied scores
    contribute half a concordant pair each (average ranks), so the value
    is exact under ties rather than depending on sort stability.
    [0.5] when either class is empty. *)
