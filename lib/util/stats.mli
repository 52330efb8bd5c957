(** Small statistics helpers used by the benchmark harness and reports. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list.  All inputs must be positive. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val minimum : float list -> float
(** Smallest element. @raise Invalid_argument on the empty list. *)

val maximum : float list -> float
(** Largest element. @raise Invalid_argument on the empty list. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or 0 when [b = 0]. *)

val overhead_pct : baseline:float -> float -> float
(** [overhead_pct ~baseline x] is the slowdown of [x] relative to
    [baseline] in percent, e.g. 23.0 for a 1.23x normalized time. *)
