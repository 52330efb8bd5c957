(** Small statistics helpers used by the benchmark harness and reports. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list.  All inputs must be positive. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val overhead_pct : baseline:float -> float -> float
(** [overhead_pct ~baseline x] is the slowdown of [x] relative to
    [baseline] in percent, e.g. 23.0 for a 1.23x normalized time. *)
