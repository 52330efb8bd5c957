(** Architectural + microarchitectural checkpoints.

    A checkpoint is everything the two-tier engine needs to resume
    detailed simulation at an architectural point: registers, memory,
    PC/retired-count, both cache levels' tag/LRU state and the full
    branch-predictor state (learned tables and history).  Captures are
    deep copies — mutating the live machine afterwards never corrupts a
    checkpoint, and one checkpoint can seed any number of independent
    resumed runs. *)

type t

val capture :
  Levioso_ir.Emulator.state ->
  hierarchy:Cache.Hierarchy.h ->
  predictor:Predictor.t ->
  t
(** Snapshot the fast tier (the emulator carries the architectural state;
    the warmed hierarchy/predictor travel alongside it). *)

val restore_emulator : t -> Levioso_ir.Emulator.state -> unit
(** Roll an emulator (over the same program shape) back to the
    checkpoint.  @raise Invalid_argument on a memory-size mismatch. *)

val restore_uarch :
  t -> hierarchy:Cache.Hierarchy.h -> predictor:Predictor.t -> unit
(** Restore the microarchitectural half into existing structures.
    @raise Invalid_argument on geometry/kind mismatch. *)

val to_pipeline :
  ?audit:Levioso_telemetry.Audit.t ->
  t ->
  Config.t ->
  policy:Pipeline.policy_maker ->
  Levioso_ir.Ir.program ->
  Pipeline.t
(** Build a fresh detailed pipeline resumed from the checkpoint: private
    copies of memory, a new hierarchy/predictor restored from the
    snapshot, registers and fetch PC warm-started.  The checkpoint is
    not aliased.  @raise Invalid_argument when [cfg.mem_words] differs
    from the checkpointed memory size. *)
