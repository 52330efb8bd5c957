(** The dependency matrix behind STT ({!Stt}) and Levioso
    ([Levioso_core.Levioso_policy]).

    One {!Levioso_uarch.Slot_mask} row per ROB arena slot is the
    dependency set of the instruction there; a set bit names the
    in-flight instruction in that slot (an STT taint root, a Levioso
    unresolved branch).  A row is built at decode and overflows past
    [budget] bits or when a producer overflowed; an overflowed row is
    empty and flagged, and the policy waits for every older branch.  A
    column clear removes one instruction's bit from every younger row.
    Each policy adds only its root rule and its clear event.

    Nothing allocates.  Each row keeps a bound (the youngest seq it may
    name, [-1] when known empty) and an upper bound on its population,
    both valid as clears take bits away.  Empty producer rows are not
    unioned, the popcount runs only when the summed populations exceed
    the budget, and a column clear visits only rows whose bound reaches
    the column.  Functions take in-flight seqs; a policy builds its
    matrix in its maker, which [Pipeline.restart] re-runs. *)

type t

val create : Levioso_uarch.Pipeline.t -> budget:int -> t

val decode : t -> seq:int -> roots:bool -> data:bool -> after:int -> own:bool -> unit
(** Build the row of [seq]: the root set when [roots], else empty; united
    with the rows of its operand producers when [data] (read through
    [Pipeline.operand_producer]); keeping only bits that name seqs
    younger than [after] when [after >= 0]; plus the bit of [seq] itself
    when [own]. *)

val producer_bound : t -> seq:int -> int
(** Recorded by {!decode}: the youngest seq a unioned producer row may
    name, [-1] for none. *)

val producer_overflow : t -> seq:int -> int
(** Recorded by {!decode}: the youngest overflowed producer, [-1] for
    none. *)

val overflowed : t -> seq:int -> bool
val is_empty : t -> seq:int -> bool

val mem : t -> seq:int -> int -> bool
(** [mem t ~seq s]: the row of [seq] names the in-flight [s]. *)

val clear_column : t -> seq:int -> unit
(** Remove the bit of [seq] from every younger row. *)

(** {1 The root set}

    Levioso's active branches.  [add_root] takes a seq not in the set,
    [remove_root] one in it. *)

val is_root : t -> seq:int -> bool
val add_root : t -> seq:int -> unit
val remove_root : t -> seq:int -> unit
