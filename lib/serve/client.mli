(** Blocking client for the {!Protocol} exchange — the library behind
    the [levioso_serve] client commands, [Levioso_cli.Cli.run_matrix]
    (the [--remote] path of [levioso_sim] and [bench]) and the serve
    tests.

    One [t] is one connection; it is not thread-safe (use one connection
    per thread — the daemon multiplexes across connections, not within
    one).  {!history} and {!prune} ask the daemon where its directories
    are, then read or prune them here: a Unix-domain socket puts both
    ends on one file system. *)

exception Server_error of string
(** Raised on connection failures, protocol violations and server-side
    [error] frames. *)

type t

val connect : string -> t
(** Connect to a daemon socket and consume its [hello] frame.
    @raise Server_error on refusal (["<socket>: cannot connect:
    <reason>"]) or protocol-generation mismatch. *)

val close : t -> unit

val pool : t -> int
(** Worker count advertised in the server's [hello]. *)

val server_cache : t -> bool
(** Whether the server has a shard store attached. *)

val ping : t -> unit
val list : t -> (string * string) list * string list
val stats : t -> Levioso_telemetry.Json.t

val prune : t -> max_age_days:int -> int
(** {!Levioso_uarch.Run_cache.prune} on the store directory the daemon's
    stats frame names ([cache_dir]): the entries removed, 0 for a
    daemon without a store. *)

val shutdown : t -> unit
(** Ask the daemon to drain and exit; returns once it acknowledged. *)

val history :
  ?since:float ->
  ?until:float ->
  ?last:int ->
  t ->
  Levioso_telemetry.Tsdb.sample list
(** {!Levioso_telemetry.Tsdb.read_dir} on the history directory the
    daemon's stats frame names ([history_dir]), while the daemon keeps
    appending to it.  @raise Server_error when the daemon runs without
    [--history-out] or a segment does not parse. *)

type result_cell = {
  source : string;  (** ["sim"], ["cache"] or ["error"] *)
  wall_s : float;  (** daemon-side wall clock for this cell *)
  summary : Levioso_telemetry.Json.t;  (** [Null] when [error] is set *)
  error : string option;
      (** daemon-side per-cell failure; the rest of the batch still
          completed *)
}

type timings = {
  trace : string;  (** the trace id this submission carried *)
  ack_s : float;  (** request written → [ack] received *)
  first_result_s : float option;
      (** request written → first [result] frame; [None] for an empty
          batch *)
  drain_s : float;  (** [ack] → [done] (daemon compute + streaming) *)
  total_s : float;  (** request written → [done] *)
}
(** Client-side latency breakdown of one submission, measured around
    the wire calls — the [--remote] timing line. *)

val submit :
  ?cache:bool ->
  ?trace:string ->
  ?on_result:(int -> result_cell -> unit) ->
  ?timings:(timings -> unit) ->
  t ->
  Protocol.cell list ->
  result_cell array * Protocol.done_stats
(** Submit a batch and block until its [done] frame.  [on_result] fires
    per streamed result (in submission order) for progress rendering.
    The returned array is indexed like the submitted list; a cell the
    daemon failed on comes back with [error] set (and counts in
    {!Protocol.done_stats.failed}) instead of aborting the batch.
    [cache] (default [true]) gates the daemon's shared store for this
    batch.  [trace] is the distributed-tracing id carried in the frame
    (minted via {!Levioso_telemetry.Span.mint_trace} when omitted);
    [timings] receives the client-side latency breakdown once the
    [done] frame lands. *)

val max_sweep : int
(** The most cells {!sweep} builds: one per ROB size from 64 to
    [Config.largest.rob_size]. *)

val sweep : workload:string -> policy:string -> int -> Protocol.cell list
(** [sweep ~workload ~policy n] is [levioso_serve stress]'s batch: [n]
    [Config.default] cells, cell [i] with a ROB of [64 + i] entries, so
    each is distinct work.  @raise Invalid_argument unless
    [1 <= n <= max_sweep]. *)
