(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that
    simulations, workload generation and property tests are bit-reproducible
    from a seed.  The generator is SplitMix64 (Steele, Lea & Flood, 2014):
    tiny state, excellent statistical quality for simulation purposes, and
    trivially splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
