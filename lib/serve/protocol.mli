(** The [levioso_serve] wire protocol: schema-versioned JSON frames over
    a Unix-domain socket, one minified object per line.

    Every frame carries a [("frame", "levioso-serve/v1")] tag; decoding a
    frame from a different protocol generation fails loudly instead of
    being misread.  Requests flow client → server; the server answers a
    [submit] with an [ack], then streams one [result] frame per cell (in
    submission order) and closes the exchange with a [done] frame, so a
    client can render progress as results arrive.  All other requests
    get exactly one response frame.  The socket carries cells and the
    daemon's live state only: the files the daemon writes (history
    segments, the result store) are read in the directories its [stats]
    frame names. *)

val version : int
(** Wire protocol generation (1).  Distinct from the JSON artifact
    [Schema.version]: summaries embedded in [result] frames keep their
    own [schema_version] field. *)

val frame_tag : string
(** ["levioso-serve/v1"]. *)

type cell = {
  config : Levioso_uarch.Config.t;  (** full core config, every field *)
  workload : string;
  policy : string;
  audit : bool;  (** record restriction provenance (disables caching) *)
  sample : Levioso_uarch.Sampler.spec option;
      (** two-tier sampled run (disables caching) *)
}
(** One simulation request — the same key a local bench cell uses. *)

type request =
  | List  (** discover workloads and policies *)
  | Ping
  | Stats  (** queue/throughput/latency snapshot *)
  | Shutdown  (** stop accepting clients and exit after draining *)
  | Submit of {
      id : string;
      cache : bool;
      trace : string option;
          (** client-minted trace id correlating the daemon's spans
              with this request; optional on the wire, so frames from
              pre-tracing clients (and to pre-tracing daemons) still
              parse *)
      cells : cell list;
    }
      (** [id] is an opaque client-chosen tag echoed in every response
          frame of the exchange; [cache] gates the daemon's shared
          result store for this batch. *)

type done_stats = {
  simulated : int;
  cached : int;
  failed : int;
      (** cells that errored daemon-side (invalid or raised); absent on
          frames from pre-tracing daemons and decoded as [0] *)
  wall_s : float;
}
(** [simulated] counts the cells the daemon ran for this submission;
    [cached] counts shard-store replays.  Every valid cell is one or the
    other.  [wall_s] is daemon-side wall clock for the whole batch. *)

type response =
  | Hello of { proto : int; pool : int; cache : bool }
      (** sent by the server immediately on connect *)
  | Listing of { workloads : (string * string) list; policies : string list }
  | Ack of { id : string; cells : int }
  | Result of {
      id : string;
      index : int;  (** position in the submitted cell list *)
      source : string;  (** ["sim"], ["cache"] or ["error"] *)
      wall_s : float;
      summary : Levioso_telemetry.Json.t;
          (** verbatim {!Levioso_uarch.Summary.of_pipeline} (or
              [of_sampled]) output — bit-identical to a local run;
              [Null] when [error] is set *)
      error : string option;
          (** a cell that failed daemon-side (invalid cell, raising
              simulation) reports here and the batch continues — one
              bad cell no longer aborts the submission *)
    }
  | Done of { id : string; stats : done_stats }
  | Stats_snapshot of Levioso_telemetry.Json.t
      (** the ["levioso-serve-stats"] document: counters, gauges,
          per-stage latency and the daemon's [cache_dir] and
          [history_dir] ([null] when off) *)
  | Pong
  | Error of string
  | Bye  (** acknowledges a [Shutdown] *)

val cell_to_json : cell -> Levioso_telemetry.Json.t
val cell_of_json : Levioso_telemetry.Json.t -> (cell, string) result

val request_to_json : request -> Levioso_telemetry.Json.t
val request_of_json : Levioso_telemetry.Json.t -> (request, string) result

val response_to_json : response -> Levioso_telemetry.Json.t
val response_of_json : Levioso_telemetry.Json.t -> (response, string) result

val write_frame : out_channel -> Levioso_telemetry.Json.t -> unit
(** One minified JSON object plus newline, flushed. *)

val max_frame_bytes : int
(** The largest request frame the daemon reads: 1 MiB, about seven
    times the 150 KB of a 300-cell submission (the biggest frame CI
    sends).  A longer line is
    refused with an [Error] frame and the connection is closed, so one
    client cannot make the daemon buffer an unbounded line. *)

val read_frame :
  ?max_bytes:int ->
  in_channel ->
  (Levioso_telemetry.Json.t option, string) result
(** [Ok None] on orderly EOF; [Error] on torn or unparsable frames, and
    on a line longer than [max_bytes] (unbounded when omitted: the
    daemon passes {!max_frame_bytes}; clients read their daemon's
    responses whole). *)
