(** Machine-readable run summaries: the one writer and the one reader.

    [levioso_sim --json] and the bench harness both emit through this
    module, so downstream tooling sees a single schema:

    {v
    {"workload": …, "policy": …,
     "stats": {cycles, ipc, mpki, …},
     "cache": {l1_hits, …},
     "stalls": {total, by_cause: {policy_gate, operand_wait, lsq_order,
                rob_full, exec_port}, top_pcs: […]},
     "audit": {…},          (only when the run was audited)
     "sampled": {estimated_cycles, …}}
                            (only for a two-tier sampled run)
    v}

    It is also the only module that reads that layout back, and the
    [BENCH_matrix.json] trajectory layout: replay and figures decode a
    run's counters with {!stats}; reports ([Html_report], [Diff_report],
    bench's audit table) read a typed {!run} through
    {!run_of_json} or {!read_runs}.  Both apply one cycles rule: a
    sampled run's cycles are its [sampled.estimated_cycles], never the
    detailed intervals' sum.  The HTML report's leak graph is read here
    too, by {!leak_of_json}. *)

val of_pipeline :
  ?workload:string ->
  ?policy:string ->
  ?top_k:int ->
  Pipeline.t ->
  Levioso_telemetry.Json.t
(** Summarize one finished run.  [workload]/[policy] label the cell when
    given; [top_k] (default 10) bounds the costliest-PC lists in the
    stall and audit breakdowns.  When the pipeline was created with an
    audit recorder, an ["audit"] section
    ([Levioso_telemetry.Audit.to_json]) is appended. *)

val of_sampled :
  ?workload:string ->
  ?policy:string ->
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

(** {1 Report view} *)

type audit = {
  restricted : int;  (** audited restriction cycles *)
  necessary : int;  (** of which on a true branch dependency *)
  unnecessary : int;
  top_pcs : (int * int * int * int) list;
      (** pc, episodes, necessary cycles, unnecessary cycles *)
}

type run = {
  workload : string;
  policy : string;
  cycles : int;  (** the estimate for a sampled run *)
  ipc : float;  (** 0 when absent *)
  stall_total : int;  (** 0 when absent *)
  by_cause : (string * int) list;  (** stall cycles, document order *)
  stall_pcs : (int * int) list;  (** costliest PCs: pc, stall cycles *)
  audit : audit option;  (** present for audited runs *)
}
(** What a report needs of one run.  Workload, policy and cycles are
    required; the rest is read when present. *)

val run_of_json : Levioso_telemetry.Json.t -> (run, string) result
(** Decode one run summary (an element of a ["runs"] list, or a
    {!of_pipeline}/{!of_sampled} value).  [Error] on a missing or
    non-string label, non-integer cycles, a sampled block without an
    integer estimate, or any present section that is malformed.  A
    [host] section is not read: it carries wall clock, and allocation
    is pinned by tier-1 instead. *)

val read_runs : Levioso_telemetry.Json.t -> (run list, string) result
(** Decode a {!runs} document, or a [BENCH_matrix.json] trajectory whose
    default-config cells carry [cycles] directly; sweep
    cells under other configs are skipped, since they reuse (workload,
    policy) labels.  [Error] on a stale [schema_version], a value that
    is neither shape, or the first run that does not decode (named by
    its index). *)

val verbose : Levioso_telemetry.Json.t -> string
(** The [levioso_sim -v] report of one labelled summary: a title, then
    one [key value] row per counter of its [sampled], [stats], [cache],
    [stalls] and [audit] blocks.  It reads the document alone, so a
    summary from a store or the daemon renders like a local one.
    @raise Invalid_argument on a document missing one of those fields. *)

(** {1 Leak graph} *)

type leak_node = {
  id : int;
  pc : int;
  kind : string;
  disasm : string;
  sources : int;  (** secret addresses the node loaded *)
  transmits : int;  (** tainted addresses it sent to the cache *)
  mispredicted : bool;
  outcome : string;
}

type leak = {
  nodes : leak_node list;
  edges : (int * int * string) list;  (** source id, target id, dependence *)
  chains : int;  (** 0 when nothing leaked *)
}

val leak_of_json : Levioso_telemetry.Json.t -> (leak, string) result
(** Decode a [levioso-flowtrace] document ([levioso_sim --leak-trace
    FILE.json]).  [Error] on a stale schema, another [kind], or a
    missing or ill-typed field (an entry named by its index), so a
    malformed graph never reads as an empty one, that is, as "no
    leak". *)
