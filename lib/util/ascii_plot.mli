(** Terminal line plots, so that every figure of the paper can be eyeballed
    straight from the CLI without external tooling. *)

type series = {
  label : string;
  points : (float * float) list;  (** (x, y) pairs, any order *)
}

val plot :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** Render series as an ASCII scatter/line chart.  Each series is drawn with
    its own glyph and listed in a legend.  Default canvas is 72x20. *)

val bar_chart :
  ?width:int ->
  title:string ->
  (string * float) list ->
  string
(** Horizontal bar chart; bar lengths are scaled to the maximum value. *)
