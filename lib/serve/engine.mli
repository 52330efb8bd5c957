(** Execution of one wire-protocol cell: the one in-process cell
    runner.  The daemon runs every cell through {!run_cell}, and so do
    bench and [levioso_sim]: bench's local cells and every
    [levioso_sim] cell call it directly, bench's [--remote] cells reach
    it through the daemon.  A plain cell runs [Pipeline.create] →
    [Pipeline.run] → [Summary.of_pipeline], a sampled one [Sampler.run]
    → [Summary.of_sampled], so a summary is the same bits whichever
    process computed it.

    The engine knows nothing of tracing: it times each stage it runs
    and returns the instants in [outcome.stages].  The daemon turns
    that one record into its stage spans and access-log columns. *)

type outcome = {
  summary : Levioso_telemetry.Json.t;
  source : string;  (** ["sim"] or ["cache"] *)
  wall_s : float;
  stages : (string * float * float) list;
      (** [(stage, start_s, stop_s)] per stage run, in execution order
          (["cache_probe"], ["replay"], ["simulate"]), absolute
          [Unix.gettimeofday] seconds *)
}

val validate_cell : Protocol.cell -> (unit, string) result
(** Config sanity, workload/policy existence, audit×sample conflict.
    The daemon checks per cell and turns a failure into that cell's
    [error] result while the rest of the batch proceeds. *)

val cacheable : Protocol.cell -> bool
(** Plain cells only: audited and sampled summaries never enter (or
    replay from) a store.  This is the only cacheability rule; callers
    pass their store for every cell and let it decide. *)

val run_cell :
  ?cache:Levioso_uarch.Run_cache.t ->
  ?observe:(Levioso_uarch.Pipeline.t -> unit) ->
  Protocol.cell ->
  outcome
(** Replay from the store when possible (the entry must decode through
    [Summary.stats]), otherwise simulate and store.  A stage that
    raises records nothing: the exception fails the whole cell.

    [observe] gets a simulated exact cell's pipeline between
    [Pipeline.create] and [Pipeline.run], to install tracers or an
    audit sink.  It is ignored on a sampled cell, which has no
    per-event stream, and on a replayed one.

    @raise Invalid_argument on unknown workload/policy names; call
    {!validate_cell} first. *)
