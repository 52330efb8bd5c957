(** A TAGE-style branch predictor (Seznec & Michaud): a bimodal base table
    plus several partially-tagged tables indexed by geometrically longer
    global-history folds.  The longest-history matching table provides the
    prediction; usefulness counters arbitrate against the alternate
    prediction; new entries are allocated on mispredictions.

    This is the "lite" variant used for the predictor-sensitivity figure:
    four tagged tables with history lengths 5/11/21/42, 8-bit tags, 3-bit
    counters, 2-bit usefulness, and a simple first-free / weakest-u
    allocation policy.  Speculative state is only the global history
    register; table updates happen at commit with the history captured at
    prediction time, mirroring {!Predictor}'s discipline. *)

type t

val create : table_bits:int -> t
(** [table_bits] is log2 of each tagged table's size (the base table gets
    [table_bits + 1]). *)

val predict : t -> pc:int -> history:int -> bool
(** Pure: does not touch the history (the caller owns it). *)

val update : t -> pc:int -> history:int -> taken:bool -> unit
(** Commit-time training with the history captured at prediction time. *)

type state
(** Deep copy of everything the predictor learned (base + tagged tables,
    allocation confidence, aging tick) — the checkpointable form. *)

val save : t -> state

val restore : t -> state -> unit
(** @raise Invalid_argument when the state came from a differently-sized
    predictor. *)
