(** Flat bitmask rows over ROB arena slots.

    A table holds [rows] masks of [bits] bits each in one [int array]
    (32 bits per word, each row a power-of-two number of words), so
    dependency tracking keyed by {!Pipeline.arena_size} slots can set,
    union, clear and count without allocating.  Bits index arena slots
    ([seq land (bits - 1)]); rows are whatever the caller keys them by. *)

type t

val create : rows:int -> bits:int -> t
(** @raise Invalid_argument unless [bits] is a positive power of two. *)

val clear : t -> int -> unit
(** Empty row [r]. *)

val add : t -> int -> int -> unit
(** [add t r b] sets bit [b] of row [r]. *)

val remove : t -> int -> int -> unit

val mem : t -> int -> int -> bool

val union : t -> dst:int -> src:int -> unit
(** Row [dst] becomes [dst ∪ src]. *)

val copy : t -> dst:int -> src:int -> unit

val is_empty : t -> int -> bool

val pop_min : t -> int -> int
(** Remove and return the lowest set bit of row [r], or [-1] when the
    row is empty.  Draining a row this way costs one step per set bit. *)

val cardinal : t -> int -> int
(** Population count of a row. *)

val inter_range : t -> int -> lo:int -> len:int -> unit
(** Keep only the bits of row [r] in the circular slot range
    [lo, lo + len) modulo [bits]; [0 <= lo < bits], [0 <= len <= bits]. *)
