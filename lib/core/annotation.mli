(** The compiler side of the Levioso co-design.

    For every conditional branch the pass computes the branch's
    {e reconvergence point} (the pc of its immediate post-dominator block)
    and encodes it as a per-branch hint.  In a real ISA this rides on an
    extended branch encoding or a hint prefix; here it is a sidecar table
    indexed by pc, which the hardware front end consults at decode.

    The hint is the entire software/hardware contract: the front end uses
    it to deactivate a branch's dependency region as soon as fetch passes
    the reconvergence pc, and needs nothing else from the compiler
    (dependency sets themselves are tracked per dynamic branch instance in
    hardware — see {!Levioso_policy}). *)

type hint = Levioso_analysis.Reconvergence.point =
  | Reconverges_at of int
      (** instructions fetched at or after this pc no longer depend on the
          branch's outcome for their existence *)
  | No_reconvergence
      (** the branch's arms only meet at program exit; its region never
          deactivates (conservative) *)

type t

val analyze : Levioso_ir.Ir.program -> t
(** Run the compiler pass (CFG construction, post-dominators,
    reconvergence). *)

val hint_for : t -> int -> hint option
(** [hint_for t pc] is the hint attached to the branch at [pc]; [None] for
    non-branch pcs. *)

val coverage : t -> float
(** Fraction of branches with a proper reconvergence point. *)

val disassemble : t -> string
(** Program listing with hint comments — what [levioso_cc] prints. *)

val stats : t -> (string * string) list
(** Compiler statistics for the evaluation table: static instructions,
    branches, reconvergence coverage, mean/max control-region size, and the
    static branch-dependency summary from {!Levioso_analysis.Branch_dep}. *)
