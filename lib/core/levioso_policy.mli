(** The Levioso hardware mechanism: compiler-informed selective delay.

    Dependency tracking per dynamic branch instance:

    + {b Active-branch set} (front end).  When a conditional branch is
      decoded it becomes {e active}.  When fetch reaches the branch's
      compiler-annotated reconvergence pc, the instance deactivates:
      instructions decoded from then on do not {e exist} conditionally on
      that branch.  (Branches annotated [No_reconvergence] deactivate only
      by resolving.)
    + {b Control dependencies}.  Each decoded instruction records the
      sequence numbers of the currently-active unresolved branch instances.
    + {b Data dependencies}.  At rename the instruction additionally
      inherits the dependency sets of its in-flight producers, so values
      computed under a branch keep carrying that branch past the
      reconvergence point.
    + {b Issue gate}.  A transmitter may begin execution only when every
      branch instance in its dependency set has resolved.  Everything else
      executes unrestricted — this is the entire performance advantage
      over {!Levioso_secure.Baselines.delay}, which waits on {e all} older
      branches.

    Dependency sets are capped at the hardware budget
    ({!Levioso_uarch.Config.t}[.depset_budget]); on overflow the entry
    degrades soundly to "wait for all older branches".

    Representation: a {!Levioso_secure.Depmatrix} row per ROB arena
    slot, whose root set is the active-branch set, plus a reconvergence
    pc per branch slot.  Nothing allocates per instruction.

    The [track_data] flag exists for the ablation figure: switching it off
    gates only on control dependence, which is cheaper but no longer covers
    operand-propagation leaks past reconvergence. *)

val maker :
  ?annotation:Annotation.t ->
  ?track_data:bool ->
  unit ->
  Levioso_uarch.Pipeline.policy_maker
(** If [annotation] is omitted the compiler pass runs on the program given
    to the pipeline (the common case).  [track_data] defaults to [true]. *)
