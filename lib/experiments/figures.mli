(** Regeneration of every results figure of the paper (Figures 9, 10, 11)
    and the headline summary statistics ("Table 1"), built on {!Sweep}. *)

type figure = {
  id : string;  (** e.g. ["Figure 9(a)"] *)
  title : string;
  x_label : string;
  y_label : string;
  series : Mutil.Ascii_plot.series list;
      (** x: percent of attacker ASes; y: percent of remaining ASes that
          adopt a false route *)
  notes : string list;  (** qualitative observations / paper references *)
}

val figure9 : ?seed:int64 -> ?jobs:int -> unit -> figure list
(** Experiment 1 — spoof-resilience in the 46-AS topology, one figure per
    origin count (1 and 2): Normal BGP vs Full MOAS detection.

    [jobs] (default {!Exec.Pool.default_jobs}, also on the figures
    below) sizes the domain pool the underlying sweeps run on; output is
    byte-identical at any job count. *)

val figure10 : ?seed:int64 -> ?jobs:int -> unit -> figure list
(** Experiment 2 — 25-AS vs 46-AS vs 63-AS comparison, one figure per
    origin count: Normal BGP and Full MOAS detection on each topology. *)

val figure11 : ?seed:int64 -> ?jobs:int -> unit -> figure list
(** Experiment 3 — partial deployment: Normal BGP vs 50% vs full
    deployment, one figure per topology (46-AS and 63-AS). *)

val render : figure -> string
(** ASCII plot followed by the exact data table. *)

val to_csv : figure -> string list * string list list
(** (header, rows) for CSV export. *)

val summary_table : ?seed:int64 -> ?jobs:int -> unit -> string
(** The paper's headline statistics (Sections 1 and 5.2-5.4) re-measured
    on our topologies, printed against the paper's values. *)
