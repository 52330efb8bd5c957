(** Schema versioning for every machine-readable report.

    All JSON artifacts the project emits — [levioso_sim --json], the
    bench matrix and its [BENCH_matrix.json] trajectory, the fuzz
    campaign report, audit summaries, diff reports and the committed
    quick baseline — carry a top-level [schema_version] field.  Parsers
    check it before trusting field layout, so a stale cache entry or an
    old report fails loudly (or is treated as a miss) instead of being
    misread.

    The version is global: any breaking change to any report bumps it.

    - v1 (implicit): PR 1–3 reports, no version field.
    - v2: [schema_version] added everywhere; audit/diff/history reports
      introduced. *)

val version : int
(** The current version (2). *)

val field : string * Json.t
(** [("schema_version", Int version)] — prepend to an [Obj]'s fields. *)

val tag : (string * Json.t) list -> Json.t
(** [tag fields] is [Obj (field :: fields)]. *)

val check : ?what:string -> Json.t -> (unit, string) result
(** Verify a parsed report declares the current version.  [what] names
    the artifact in the error message. *)

