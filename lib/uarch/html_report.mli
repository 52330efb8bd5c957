(** Self-contained HTML rendering of a bench matrix.

    [render] turns a {!Summary.matrix} JSON value (the shape
    [levioso_bench --json] and [BENCH_matrix.json] emit) into one HTML
    document with inline CSS and inline SVG charts — no external
    resources, no scripts, so the file opens anywhere and the output is
    byte-deterministic for golden tests:

    - normalized execution overhead per policy, grouped by workload
      (the paper's fig. 3 shape), baseline = the ["unsafe"] run of the
      same workload when present;
    - stacked stall-cause bars per run;
    - the necessary/unnecessary restriction split per audited run;
    - a top-K restricted-PC table per audited run.

    Numbers are rendered with fixed precision; nothing in the output
    depends on time, locale or environment. *)

val render :
  ?title:string ->
  ?leak:Levioso_telemetry.Json.t ->
  Levioso_telemetry.Json.t ->
  (string, string) result
(** [render matrix] is the full HTML document.  [Error] when [matrix]
    has no ["runs"] list.  When [?leak] is given (a
    [levioso-flowtrace] JSON document from [levioso_sim --leak-trace
    FILE.json]), the report gains a "Speculative leakage provenance"
    section: an SVG leak graph, one row per node, edges colored by
    dependence kind, capped at 40 nodes; an empty graph renders as an
    explicit no-leak statement.  Output without [?leak] is unchanged. *)

val render_exn :
  ?title:string ->
  ?leak:Levioso_telemetry.Json.t ->
  Levioso_telemetry.Json.t ->
  string

val esc : string -> string
(** Escape the four HTML metacharacters (angle brackets, ampersand,
    double quote) for text and attribute values; shared with
    {!Dashboard}. *)
