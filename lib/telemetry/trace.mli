(** Structured trace sink.

    Generalizes the simulator's text tracer: every microarchitectural
    event is a typed record carrying cycle, sequence number, PC and
    stage, and a sink decides the encoding:

    - [Jsonl]: one minified JSON object per line — easy to grep/jq.
    - [Chrome]: the Chrome [trace_event] array format, loadable in
      [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}.
      Each stage renders as its own track (tid), one cycle = 1 µs.

    Sinks support sampling ([~every:k] keeps every k-th event) so
    whole-run traces of long workloads stay cheap.  A sink must be
    {!close}d: the Chrome format needs its closing bracket, and both
    formats buffer. *)

type event = {
  cycle : int;
  seq : int;  (** -1 when the event has no associated instruction *)
  pc : int;  (** -1 when the event has no associated PC *)
  stage : string;  (** "fetch", "issue", "complete", "commit", … *)
  args : (string * Json.t) list;  (** extra event-specific payload *)
}

val event_to_json : event -> Json.t
(** Flat object: cycle/seq/pc/stage then [args] fields (seq and pc are
    omitted when negative). *)

(** {1 Chrome trace_event records}

    The two record shapes both Chrome writers emit (this module's sink
    and [Span.to_chrome]), with one fixed key order. *)

val chrome_complete :
  name:string ->
  cat:string ->
  ts:int ->
  dur:int ->
  pid:int ->
  tid:int ->
  (string * Json.t) list ->
  Json.t
(** A complete (["ph": "X"]) event: name, cat, ph, ts, dur, pid, tid,
    then the given [args] object. *)

val chrome_metadata : name:string -> pid:int -> tid:int -> string -> Json.t
(** A metadata (["ph": "M"]) record, e.g. [~name:"process_name"], whose
    [args] is [{"name": label}]. *)

(** {1 Sinks} *)

type format =
  | Jsonl
  | Chrome

val format_of_filename : string -> format
(** [.jsonl] → [Jsonl], anything else (including [.json]) → [Chrome]. *)

type sink

val to_channel : ?every:int -> format:format -> out_channel -> sink
(** [every] defaults to 1 (keep everything); [every = k] keeps events
    0, k, 2k, … of the stream.  The channel is NOT closed by {!close} —
    the caller owns it. *)

val of_fn : ?every:int -> (event -> unit) -> sink
(** Deliver (sampled) events to a callback; for tests and custom
    consumers. *)

val emit : sink -> event -> unit

val begin_process : sink -> name:string -> unit
(** Start a new logical process (one simulator run): subsequent events
    group under a fresh pid, and the Chrome encoding emits a
    [process_name] metadata record so Perfetto labels the track.  Not
    subject to sampling.  No-op track-wise for [of_fn] sinks. *)

val close : sink -> unit
(** Writes the Chrome footer (idempotent) and flushes. *)

val seen : sink -> int
(** Events offered to the sink (before sampling). *)

val written : sink -> int
(** Events actually emitted (after sampling). *)
