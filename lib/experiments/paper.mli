(** The paper's qualitative claims, printed beside the reproduced figures
    (the figures themselves are not machine-readable). *)

val claims : string list
(** The qualitative claims the reproduction must exhibit. *)
