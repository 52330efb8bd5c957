(** The levioso_serve daemon: a Unix-domain-socket front end that
    schedules batched simulation requests onto one shared
    {!Levioso_util.Parallel} pool and one shared {!Levioso_uarch.Run_cache}
    shard store.

    One systhread per connection handles that client's frames
    sequentially; concurrency comes from many connections feeding the
    pool, whose bounded queue (see [queue_max]) provides backpressure by
    blocking the submitting handler.  Every cell of every submission is
    computed or replayed on its own future.  The socket carries cells and
    the daemon's state; the directories the daemon writes (store,
    history) are created before it binds and named, as absolute paths,
    in its stats frame.

    Results are streamed back in submission order, so a client's view is
    bit-identical to a serial in-process run of the same matrix. *)

type history_opts = {
  history_dir : string;  (** tsdb segment directory, created as needed *)
  history_interval_s : float;  (** sampling period (clamped to >= 10ms) *)
}
(** Continuous telemetry ([--history-out]): a sampler thread appends
    the daemon's full observable state (queue/throughput gauges, each
    latency stage's recent-window percentiles, histogram mass and
    end-to-end buckets, the {!Levioso_telemetry.Monitor.gc_counters},
    derived per-second rates) to an on-disk
    {!Levioso_telemetry.Tsdb} at a fixed interval.  The sample, the
    [stats] frame and the monitor's gauges and histograms are each
    rendered from one snapshot of that state, read once per
    rendering. *)

type opts = {
  socket_path : string;  (** created on start, unlinked on stop *)
  pool_size : int;  (** simulation domains (clamped to >= 1) *)
  queue_max : int option;
      (** bound on queued cells; [None] = unbounded *)
  cache : Levioso_uarch.Run_cache.t option;
      (** shared shard store; [None] disables replay/persist *)
  monitor : Levioso_telemetry.Monitor.t option;
      (** live progress + OpenMetrics queue/throughput gauges and
          per-stage latency histograms, from one
          {!Levioso_telemetry.Span.Latency} recorder per stage (queue,
          exec, serialize, total) *)
  log : (string -> unit) option;  (** daemon-side event log lines *)
  spans : Levioso_telemetry.Span.t option;
      (** request-level tracing: with a collector, every submission
          records a [submit] root span, one [cell] child per cell
          (covering the access record's [total_s]) and, under each
          cell, one span per engine stage.
          They are built from the instants the daemon reads anyway, so
          tracing adds no clock reads; the caller drains and exports
          after {!run} returns.  [None] = tracing off.  Either way the
          simulation results are bit-identical — collection is
          observational. *)
  access_log : out_channel option;
      (** one minified schema-tagged JSONL record per served cell
          (see {!Levioso_telemetry.Span.access_record}), flushed per
          line so `tail -f` works, with queue, exec, engine-stage and
          serialize durations whether or not [spans] is set.  The
          caller owns the channel. *)
  history : history_opts option;
      (** continuous telemetry; [None] = off: no sampler thread, no
          tsdb, zero history clock reads, and the stats frame's
          [history_dir] is [null].  Results are
          bit-identical either way — sampling is observational. *)
}

val run : ?on_ready:(unit -> unit) -> opts -> unit
(** Bind, serve until a [shutdown] frame arrives, drain outstanding
    work, then clean up (socket unlinked, monitor closed).  [on_ready]
    fires once the socket is accepting — tests use it to connect
    without polling.

    @raise Failure if [socket_path] is already served by a live daemon
    (a stale socket from a dead one is silently replaced).
    @raise Sys_error naming a directory that cannot be created, or an
    unwritable metrics file; a daemon that fails to start leaves no
    socket file behind. *)
