(** Live run monitor: a heartbeat for long matrix runs and fuzz
    campaigns.

    Bench matrix runs, [levioso_sim] sweeps and fuzz campaigns report
    item starts/completions into a monitor; it periodically renders

    - an in-place ANSI status line (done/total, percent, elapsed, ETA,
      the workload×policy each domain is currently simulating), and
    - an OpenMetrics text file suitable for scraping, written via
      temp-file + rename so a tailing reader never sees a torn write.

    The monitor is strictly a side channel: it never touches simulation
    state, so results are bit-identical with it on or off, and it is
    mutex-guarded so [-j N] workers can report concurrently without
    perturbing the (ordered, deterministic) result collection. *)

type t

val create :
  ?ansi:out_channel ->
  ?force_ansi:bool ->
  ?metrics_path:string ->
  ?min_interval:float ->
  ?total:int ->
  label:string ->
  unit ->
  t
(** [min_interval] (seconds, default 0.5) rate-limits rendering; the
    final [close] snapshot is always written.  [total] may be set later
    via {!set_total} once the work list is known.

    The [ansi] status line is auto-suppressed when the channel is not a
    terminal ([Unix.isatty]) — piping or redirecting stderr keeps logs
    clean without losing the [metrics_path] snapshot.
    [force_ansi] (an explicit [--progress] flag) overrides the
    detection and keeps the line even when piped. *)

val set_total : t -> int -> unit

val inc_total : t -> int -> unit
(** Grow the planned total by [n] (from zero when unset).  Long-lived
    daemons learn of work one client submission at a time, so their
    total accumulates instead of being known up front. *)

val set_gauge : t -> ?help:string -> string -> float -> unit
(** Publish an application gauge (e.g. the daemon's work-queue depth).
    Gauges appear in the OpenMetrics text as [levioso_<name>]; setting
    an existing name updates it in place, keeping first-insertion order
    (the rendered metric ordering is stable across updates).  [name] is sanitized to
    the OpenMetrics charset ([a-zA-Z0-9_:]; anything else becomes
    ['_']), and the HELP line is escaped, so caller-supplied strings
    can never corrupt the exposition format. *)

val set_histogram :
  t ->
  ?help:string ->
  string ->
  buckets:(float * int) list ->
  sum:float ->
  count:int ->
  unit
(** Publish a latency histogram: [buckets] are [(upper_bound,
    cumulative_count)] pairs (e.g. a {!Span.Latency.reading}'s
    [buckets]), rendered as OpenMetrics [<name>_bucket{le="..."}]
    series plus the implied [+Inf] bucket, [<name>_sum] and
    [<name>_count].  Same
    sanitization, update-in-place and ordering rules as
    {!set_gauge}. *)

val gc_counters : unit -> (string * string * float) list
(** The one GC counter list, [(name, help, value)] from
    [Gc.quick_stat], [gc_heap_words] to [gc_promoted_words]: the serve
    daemon's history samples carry all six, a monitor all but the
    last. *)

val start : t -> string -> unit
(** [start t what] notes that the calling domain began working on
    [what] (e.g. ["matmul/levioso"]). *)

val item_done : t -> unit
(** The calling domain finished its current item; increments the done
    counter. *)

val progress : t -> ?failures:int -> done_:int -> unit -> unit
(** Absolute progress update (fuzz campaigns report executed-iteration
    counts after each chunk rather than per-item start/finish). *)

val openmetrics : t -> string
(** The current snapshot in OpenMetrics text format (ends with
    [# EOF]).  Alongside the progress and application gauges it exports
    process self-metrics, so any monitored CLI reports its own health
    ([levioso_uptime_seconds], [levioso_gc_heap_words],
    [levioso_gc_top_heap_words], [levioso_gc_minor_collections],
    [levioso_gc_major_collections], [levioso_gc_minor_words]). *)

val close : t -> unit
(** Forces a final snapshot (metrics file + status line, which gets a
    terminating newline).  Idempotent. *)
