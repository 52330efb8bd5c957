(** Request-level distributed tracing for the serve path.

    A {!t} is a thread-safe span collector: code anywhere on a request's
    path opens a span ({!start}), attaches string attributes, and
    {!finish}es it; finished spans land in per-domain buffers (one mutex
    per domain, so pool workers never contend with connection-handler
    threads) that {!drain} merges into one deterministic order.

    Spans form a tree: every span carries the trace id of the request it
    belongs to (minted once, client-side, and carried across the wire)
    and the id of its parent span ([-1] for a root).  The collector
    never interprets the tree — exporters do:

    - {!to_chrome} / {!write_chrome}: the Chrome [trace_event] array
      format (same conventions as {!Trace}: 1 µs resolution, complete
      ["X"] events, metadata records naming tracks), one track per
      trace, loadable in Perfetto.  The top-level object is
      schema-tagged like every other JSON artifact in the repo.
    - {!access_record}: one schema-tagged JSONL record per served cell
      with per-stage durations — the daemon's access log.
    - {!Hist}: fixed log-scale latency histograms whose buckets feed
      {!Monitor.set_histogram} (OpenMetrics).
    - {!Window}: sliding-window exact percentiles for the live
      [stats]/[top] views.

    Everything is byte-deterministic given a fixed [clock], so golden
    tests inject a counter clock and compare exporter output textually.
    Collection is strictly observational: simulation results are
    bit-identical with spans on or off. *)

type clock = unit -> float
(** Seconds.  Defaults to [Unix.gettimeofday]; tests inject a fake. *)

type t
(** A collector. *)

type span
(** An open span handle.  Cheap, immutable identity; attributes may be
    added until {!finish}. *)

type finished = {
  trace : string;  (** request trace id this span belongs to *)
  id : int;  (** unique within the collector *)
  parent : int;  (** parent span id, [-1] for a root *)
  name : string;  (** stage name: ["submit"], ["cell"], ["simulate"], … *)
  start_s : float;
  stop_s : float;
  attrs : (string * string) list;  (** in attachment order *)
}

val create : ?clock:clock -> unit -> t
(** The creation instant becomes the exporters' time origin, so Chrome
    timestamps start near zero. *)

val now : t -> float
(** One clock reading — for callers timing stages without a span. *)

val mint_trace : unit -> string
(** A process-unique trace id (["tr-<pid>-<n>"]).  Clients mint one per
    submission and carry it in the wire frame so daemon-side spans
    correlate with the client's request. *)

val start : t -> ?trace:string -> ?parent:int -> string -> span
(** Open a span.  [trace] defaults to [""] (untraced), [parent] to
    [-1] (root). *)

val add_attr : span -> string -> string -> unit
(** Attach one string attribute.  Not thread-safe per span (a span is
    owned by the code path that opened it). *)

val id : span -> int

val finish : t -> ?attrs:(string * string) list -> span -> unit
(** Stamp the stop time and move the span into the calling domain's
    buffer.  [attrs] are appended after any {!add_attr}ed ones.
    Finishing a span twice records it twice — don't. *)

val duration : finished -> float

val drain : t -> finished list
(** Merge every domain's buffer and empty them.  Sorted by
    [(start_s, id)] so the order is deterministic whenever the clock
    is. *)

(** {1 Exporters} *)

val to_chrome : ?epoch:float -> finished list -> Json.t
(** Chrome [trace_event] JSON: a schema-tagged object with a
    ["traceEvents"] array.  One tid per distinct trace id (assigned in
    list order, named by a [thread_name] metadata record), ["X"]
    complete events with microsecond [ts]/[dur] relative to [epoch]
    (default [0.]), span/parent/trace plus attributes under [args]. *)

val write_chrome : ?epoch:float -> out_channel -> finished list -> unit
(** [to_chrome] pretty-printed to a channel, newline-terminated.  The
    caller owns the channel. *)

val access_record :
  ts:float ->
  trace:string ->
  request:string ->
  index:int ->
  workload:string ->
  policy:string ->
  source:string ->
  ?error:string ->
  stages:(string * float) list ->
  total_s:float ->
  unit ->
  Json.t
(** One access-log record (the daemon writes one per served cell, as
    minified JSONL): schema-tagged, [kind = "levioso-serve-access"],
    then identity fields and one [<stage>_s] float per [stages] entry
    (in the given order) plus [total_s].  Durations are clamped to be
    non-negative so clock jitter can never produce a negative stage. *)

(** {1 Latency accounting} *)

(** Fixed log-scale histogram: 1–2.5–5 bucket bounds per decade from
    1 µs to 100 s, plus an overflow bucket.  Mutex-guarded; the bounds
    are fixed so daemon restarts and different stages always bucket
    identically (OpenMetrics requirement). *)
module Hist : sig
  type h

  val bounds : float array
  (** The shared upper bounds, seconds, strictly increasing. *)

  val create : unit -> h
  val observe : h -> float -> unit
  val count : h -> int
  val sum : h -> float

  val buckets : h -> (float * int) list
  (** [(upper_bound, cumulative_count)] per bound — exactly the shape
      {!Monitor.set_histogram} renders ([+Inf] is implied by
      {!count}). *)

  val percentile : h -> float -> float
  (** Upper-bound estimate of the [q]-quantile ([0 < q <= 1]); [0.] when
      empty.  Coarse by construction — use {!Window} for exact
      percentiles over recent samples. *)
end

(** Sliding window of the last [capacity] observations (a {!Ring}) with
    exact percentiles — the [stats] frame's p50/p95/p99 and
    [levioso_serve stress]'s cell wall-clock percentiles; no other
    nearest-rank percentile exists.  Mutex-guarded. *)
module Window : sig
  type w

  val create : int -> w
  (** [capacity >= 1] (clamped). *)

  val observe : w -> float -> unit
  val count : w -> int
  (** Observations currently held ([<= capacity]). *)

  val seen : w -> int
  (** Observations ever offered (monotonic). *)

  val percentile : w -> float -> float option
  (** Exact nearest-rank [q]-quantile ([0 < q <= 1]) over the held
      window: the [ceil (q * n)]-th smallest of the [n] held values;
      [None] when empty. *)
end
