(** Necessity classification for restriction-provenance auditing.

    The audit layer ([Levioso_telemetry.Audit]) labels each restriction
    episode {e necessary} or {e unnecessary}; the oracle it needs —
    "is this instruction truly dependent on that branch?" — is exactly
    the static analysis Levioso's compiler pass runs
    ([Levioso_analysis.Branch_dep]).  This module packages that analysis
    as the closure the (dependency-free) telemetry layer expects.

    A restriction is {e necessary} when at least one of the unresolved
    branches gating it has the gated instruction in its static
    dependency cone — i.e. a conservative defense would also have to
    wait there.  Anything else is pure over-restriction: the cycles a
    dependency-aware defense (Levioso) gets back. *)

val audit_for :
  ?capacity:int -> Levioso_ir.Ir.program -> Levioso_telemetry.Audit.t
(** An audit recorder whose necessity oracle says whether the
    instruction at [pc] is (control- or data-) dependent on the branch
    at [branch_pc] per [Branch_dep.compute], run once per program.
    [capacity] bounds the event ring as in [Audit.create]. *)
