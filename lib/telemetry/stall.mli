(** Per-cycle stall attribution.

    Every cycle the pipeline charges each in-window instruction that
    wanted to issue but could not to exactly one {!cause}, keyed by the
    instruction's static PC.  The resulting table answers "where do the
    stall cycles go?" — per cause for the overhead breakdown, per PC for
    naming the top-K costliest branches and loads.

    The cause taxonomy, in the priority order the pipeline applies it
    (first matching cause wins, so charges are disjoint):

    - [Policy_gate]: operands ready, the active defense refused
      [may_execute].  By construction this count equals the legacy
      [Sim_stats.policy_stall_cycles] counter.
    - [Operand_wait]: a source operand is still being produced.
    - [Lsq_order]: a ready load blocked by memory ordering — an older
      store's address is unknown, or all MSHRs are busy.
    - [Exec_port]: issuable, but the cycle's issue width was already
      spent on older instructions (structural).
    - [Rob_full]: fetch could not dispatch because the window is full;
      charged to the fetch PC.

    The pipeline charges [Operand_wait] in bulk with {!charge_n}, once
    per waiting episode, and settles the episodes still open whenever
    its table is read; every other cause is charged cycle by cycle.
    The totals are the same either way. *)

type cause =
  | Policy_gate
  | Operand_wait
  | Lsq_order
  | Rob_full
  | Exec_port

val all_causes : cause list
val cause_to_string : cause -> string

val cause_index : cause -> int
(** Dense index, taxonomy order — lets hot paths carry a cause as a bare
    int (-1 for "none") instead of a [cause option]. *)

val cause_of_index : int -> cause
(** Inverse of {!cause_index}.  @raise Invalid_argument out of range. *)

type t

val create : num_pcs:int -> t
(** [num_pcs] is the static program length; PCs outside
    [0, num_pcs) are rejected. *)

val charge : t -> cause:cause -> pc:int -> unit

val charge_n : t -> cause:cause -> pc:int -> int -> unit
(** [charge_n t ~cause ~pc n] records [n] charges at once, the same as
    [n] calls to {!charge}.  @raise Invalid_argument when [n < 0]. *)

val accumulate : t -> t -> unit
(** [accumulate dst src] adds every charge in [src] into [dst] — used by
    the sampled-simulation driver to aggregate per-interval attributions.
    @raise Invalid_argument when the tables cover different programs. *)

val total : t -> int
(** Sum of every charge. *)

val by_cause : t -> (cause * int) list
(** One entry per cause, taxonomy order. *)

val count : t -> cause -> int

val per_pc_total : t -> pc:int -> int

val top_k : t -> k:int -> (int * int * (cause * int) list) list
(** The [k] PCs with the largest total charge, descending:
    [(pc, total, nonzero per-cause counts)].  PCs with zero charge are
    omitted. *)

val to_json : ?top_k:int -> t -> Json.t
(** [{total, by_cause: {...}, top_pcs: [{pc, total, causes}]}];
    [top_k] defaults to 10. *)

val to_rows : t -> (string * string) list
