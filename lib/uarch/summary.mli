(** Machine-readable run summaries.

    One serializer for everything a finished pipeline run can report —
    [levioso_sim --json] and the bench harness both emit through this
    module, so downstream tooling sees a single schema, and every reader
    that needs a run's counters back decodes them with {!stats}:

    {v
    {"workload": …, "policy": …,
     "stats": {cycles, ipc, mpki, …},
     "cache": {l1_hits, …},
     "stalls": {total, by_cause: {policy_gate, operand_wait, lsq_order,
                rob_full, exec_port}, top_pcs: […]},
     "audit": {…},          (only when the run was audited)
     "host": {phases: {…}, total: {wall_s, minor_words, …}}}
                            (only when host profiling was requested)
    v} *)

val of_pipeline :
  ?workload:string ->
  ?policy:string ->
  ?host:(string * Levioso_telemetry.Hostprof.span) list ->
  ?top_k:int ->
  Pipeline.t ->
  Levioso_telemetry.Json.t
(** Summarize one finished run.  [workload]/[policy] label the cell when
    given; [top_k] (default 10) bounds the costliest-PC lists in the
    stall and audit breakdowns.  When the pipeline was created with an
    audit recorder, an ["audit"] section
    ([Levioso_telemetry.Audit.to_json]) is appended.  [host] attaches a
    host self-profiling section (named phases measured with
    [Levioso_telemetry.Hostprof.measure]); note the section carries wall
    clock, so summaries meant to be byte-compared across runs should
    omit it. *)

val of_sampled :
  ?workload:string ->
  ?policy:string ->
  ?host:(string * Levioso_telemetry.Hostprof.span) list ->
  ?top_k:int ->
  Sampler.result ->
  Levioso_telemetry.Json.t
(** Summarize a two-tier sampled run: same shape as {!of_pipeline}
    (stats/cache/stalls cover the detailed intervals) plus a ["sampled"]
    section carrying the cycle estimate, its error bound and the interval
    accounting. *)

val runs : Levioso_telemetry.Json.t list -> Levioso_telemetry.Json.t
(** Wrap per-run summaries as [{"schema_version": …, "runs": […]}] — for
    harnesses that serialize each cell as it finishes instead of keeping
    every pipeline (8 MB of simulated memory each) alive. *)

val stats : Levioso_telemetry.Json.t -> (Sim_stats.t, string) result
(** The inverse of {!of_pipeline} and {!of_sampled} for every reader of a
    stored or streamed summary: check the [schema_version], then decode
    the ["stats"] block.  For a sampled summary, [cycles] is the
    ["sampled"] block's [estimated_cycles], so figures plot estimates
    unchanged.  [Error] on a stale schema, a missing or undecodable
    stats block, or a sampled block without an integer estimate. *)
