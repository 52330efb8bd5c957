(** An append-only, schema-tagged, on-disk metrics time-series.

    The serve daemon samples its full operational state (queue gauges,
    latency percentiles, histogram mass, GC counters) at a fixed
    interval and appends each sample here; [levioso_serve history] and
    [levioso_report --dashboard] read the segments back.  Design goals,
    in the order they were traded off:

    - {b Durable and bounded.}  Samples land in numbered segment files
      ([seg-00000000.jsonl], …) under one directory.  The active segment
      is flushed after every record, so a reader sees every completed
      line; rotation closes the active segment and opens
      the next, and retention unlinks whole rotated segments — never
      partial files — once the store exceeds its byte budget.
    - {b Self-describing.}  One sample per line, minified JSON, tagged
      with [schema_version] and the [kind] "levioso-tsdb-sample" so any
      consumer can validate before trusting layout.  Field values are
      bare floats; non-finite values are dropped at append time rather
      than smuggled through as null.
    - {b Deterministic when it matters.}  The clock is injectable.
      With a fixed clock the byte content of every segment is a pure
      function of the appended data, so tests can compare whole files.
      Writers read the clock exactly once per {!append} and never
      otherwise — a daemon started without [--history-out] constructs
      no [Tsdb.t] and therefore performs zero history clock reads. *)

type clock = unit -> float
(** Absolute seconds (Unix epoch in production). *)

type sample = {
  ts : float;  (** clock reading when the sample was appended *)
  fields : (string * float) list;
      (** metric name -> value, insertion order preserved *)
}

(** {1 Writing} *)

type t

val create :
  ?clock:clock ->
  ?max_segment_bytes:int ->
  ?max_total_bytes:int ->
  dir:string ->
  unit ->
  t
(** Open (creating directories as needed) a store rooted at [dir].
    New records append to a fresh segment numbered after any already
    present, so restarts extend history instead of clobbering it.
    Defaults: [clock = Unix.gettimeofday], [max_segment_bytes] 256 KiB,
    [max_total_bytes] 16 MiB.  [create] itself
    never reads the clock. *)

val now : t -> float
(** Read the store's clock (counts as a clock read). *)

val append : ?ts:float -> t -> (string * float) list -> unit
(** Append one sample.  Without [?ts] the stamp costs exactly one clock
    read; callers that already read the clock (via {!now}, for rate
    computation) pass it explicitly and [append] reads nothing.
    Non-finite field values are dropped.  May rotate the active segment
    and delete expired ones. *)

val close : t -> unit
(** Flush and close the active segment.  The [t] must not be used
    afterwards. *)

(** {1 Reading} *)

val segment_files : string -> string list
(** Absolute paths of the segment files under [dir], oldest first.
    Empty list when the directory is missing or holds no segments. *)

val read_dir :
  ?since:float ->
  ?until:float ->
  ?last:int ->
  string ->
  (sample list, string) result
(** Parse every segment under [dir] in timestamp order, keeping samples
    with [since <= ts <= until], and of those only the newest [last]
    when [last > 0] (the default, 0, keeps all).  Each line is
    schema-checked; a malformed line fails the whole read with a
    message naming the file and line number.  Text after a segment's
    last newline is an append still in progress and is skipped, so a
    reader may run while a daemon appends.  A missing [dir] is an
    [Error] naming it, unlike {!segment_files}, so a mistyped path never
    reads as an empty history. *)

(** {1 Serialization} *)

val sample_to_json : sample -> Json.t

val sample_of_json : Json.t -> (sample, string) result
(** Inverse of {!sample_to_json}; schema-checks first.  Any other
    [kind] is an [Error]. *)

val history_doc : sample list -> Json.t
(** Wrap samples as the schema-tagged ["levioso-history"] document that
    [levioso_serve history --json] prints. *)
