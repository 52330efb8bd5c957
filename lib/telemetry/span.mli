(** Request-level distributed tracing for the serve path.

    A {!t} is a thread-safe collector of finished spans.  The daemon
    times each served cell once and records the spans it derives from
    those instants ({!add}); {!drain} returns them in one deterministic
    order.  Spans carry no clock of their own: every [start_s]/[stop_s]
    is an instant the caller already read.

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
    - {!Latency}: one recorder per latency stage, whose log-scale
      buckets feed {!Monitor.set_histogram} (OpenMetrics) and whose
      recent-observation ring gives the exact percentiles of the live
      [stats]/[top] views and the history samples.

    The exporters are byte-deterministic given the records, so golden
    tests build records by hand and compare exporter output textually.
    Collection is strictly observational: simulation results are
    bit-identical with spans on or off. *)

type t
(** A collector. *)

type finished = {
  trace : string;  (** request trace id this span belongs to *)
  id : int;  (** unique within the collector *)
  parent : int;  (** parent span id, [-1] for a root *)
  name : string;  (** stage name: ["submit"], ["cell"], ["simulate"], … *)
  start_s : float;
  stop_s : float;
  attrs : (string * string) list;  (** in the order given *)
}

val create : unit -> t

val fresh_id : t -> int
(** A span id unique within the collector: take it before recording a
    span whose children must name it as their parent. *)

val add : t -> finished -> unit
(** Record one finished span.  Adding a span twice records it twice. *)

val mint_trace : unit -> string
(** A process-unique trace id (["tr-<pid>-<n>"]).  Clients mint one per
    submission and carry it in the wire frame so daemon-side spans
    correlate with the client's request. *)

val drain : t -> finished list
(** Every span recorded since the last drain, which empties the
    collector.  Sorted by [(start_s, id)]. *)

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

(** One stage's latency recorder.  Under one mutex, an observation
    lands in a fixed log-scale histogram (1–2.5–5 bounds per decade
    from 1 µs to 100 s, plus overflow) with its sum, and in a ring of
    recent observations for exact percentiles; the ring's push count is
    the one observation counter.  Fixed bounds make restarts and stages
    bucket identically (OpenMetrics requirement). *)
module Latency : sig
  type t

  val bounds : float array
  (** The shared upper bounds, seconds, strictly increasing. *)

  val create : unit -> t
  (** The percentiles cover the last 512 observations. *)

  val observe : t -> float -> unit

  (** One consistent reading, taken under the recorder's lock. *)
  type reading = {
    seen : int;  (** observations ever made *)
    sum : float;  (** their sum, seconds *)
    buckets : (float * int) list;
        (** [(upper_bound, cumulative_count)] per bound — exactly the
            shape {!Monitor.set_histogram} renders ([+Inf] is [seen]) *)
    recent : float array Lazy.t;
        (** the last 512 observations, ascending; sorted only when
            forced *)
  }

  val read : t -> reading

  val nearest_rank : float array -> float -> float option
  (** [nearest_rank sorted q]: the [ceil (q * n)]-th smallest of the [n]
      values of an ascending array ([0 < q <= 1]), [None] when empty.
      The one percentile function, also used by [levioso_serve
      stress]. *)
end
