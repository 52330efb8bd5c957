(** Self-contained HTML rendering of a bench matrix.

    [render] turns a {!Summary.runs} document ([levioso_sim --json],
    [bench --json]) or a [BENCH_matrix.json] trajectory, read through
    {!Summary.read_runs}, into one HTML page written through
    {!Levioso_telemetry.Html}, under that module's contract (inline CSS
    and SVG, no scripts or external resources, byte-deterministic):

    - normalized execution overhead per policy, grouped by workload
      (the paper's fig. 3 shape), baseline = the ["unsafe"] run of the
      same workload when present; a sampled run plots its estimated
      cycles;
    - stacked stall-cause bars per run;
    - the necessary/unnecessary restriction split per audited run;
    - a top-K restricted-PC table per audited run. *)

val render :
  ?title:string ->
  ?leak:Summary.leak ->
  Levioso_telemetry.Json.t ->
  (string, string) result
(** [render matrix] is the full HTML document.  [Error] with
    {!Summary.read_runs}'s message when [matrix] does not decode.
    When [?leak] is given (a [levioso-flowtrace] document from
    [levioso_sim --leak-trace FILE.json], decoded by
    {!Summary.leak_of_json}), the report gains a
    "Speculative leakage provenance" section: an SVG leak graph, one row
    per node, edges colored by dependence kind, capped at 40 nodes; an
    empty graph renders as an explicit no-leak statement. *)
