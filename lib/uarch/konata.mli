(** Instruction-lifecycle timelines in the Kanata 0004 log format.

    Records the pipeline's stage events ({!Pipeline.event}: fetch /
    issue / complete / commit / branch-resolve / squash), the per-cycle
    stall-attribution hook and, optionally, the flow tracer's taint
    events, and renders a pipeline-viewer trace loadable by Konata
    (https://github.com/shioyadan/Konata), with left-pane labels
    disassembled from the program.

    Stage mapping (lane 0):
    - [F]  the fetch cycle;
    - [I]  in-window waiting to issue (this is where stall-cause lane-1
           segments and detail labels land);
    - [X]  issue to completion;
    - [C]  completed, waiting to commit (instructions that are done at
           dispatch — jumps, halt — go straight from [F] to [C]).

    Lane 1 carries one segment per run of same-cause waiting cycles,
    labelled by a short code Konata colors by: [Gp] policy gate, [Op]
    operand wait, [Lq] load/store-queue order, [Xp] execution port,
    [Rf] ROB full, and the taint marks [Ts] (taint source) and [Tn]
    (tainted transmit).

    Committed instructions get a retire record; squashed instructions a
    flush record, so wrong-path work shows up struck-through in Konata.

    Recording is observational only: it never mutates or queries the
    pipeline, so simulation results are bit-identical with a timeline
    attached or not (asserted by test). *)

type t

val format_version : int
(** Version of the [#levioso-timeline] header comment; bumped on any
    change to how the trace is rendered (golden tests pin the bytes). *)

val create : ?window:int * int -> Levioso_ir.Ir.program -> t
(** A timeline whose left-pane labels are disassembled from [program]
    (["pc=<n>"] for a PC outside it).  [window = (a, b)] records only
    instructions fetched in cycles [a..b] inclusive (events for other
    instructions are dropped on arrival, so memory stays proportional to
    the window).
    @raise Invalid_argument if [a > b] or [a < 0]. *)

(** {1 Recording} — in simulation order, from the pipeline's tracers. *)

val feed : t -> cycle:int -> Pipeline.event -> unit
(** Record one pipeline event.  Call from a {!Pipeline.set_tracer}
    callback (or multiplex inside an existing one). *)

val feed_stall :
  t ->
  cycle:int ->
  seq:int ->
  pc:int ->
  cause:Levioso_telemetry.Stall.cause ->
  unit
(** Record one waiting cycle charged to [cause].  Call from a
    {!Pipeline.set_stall_tracer} callback.  Consecutive cycles with the
    same cause are merged into one segment at render time. *)

val flow_feeder :
  t -> cycle:int -> Levioso_telemetry.Flowtrace.event -> unit
(** [flow_feeder tl] is a flow-tracer callback that highlights tainted
    instructions in the timeline: taint sources get a ["Ts"] lane-1
    mark, tainted transmits a ["Tn"] mark.  Multiplex it inside a
    {!Pipeline.set_flow_tracer} callback alongside a leak-graph
    accumulator.  (Partial application is intentional: the feeder owns
    a node-id → seq map fed by [Node] events.) *)

val attach : t -> Pipeline.t -> unit
(** Installs the event and stall tracers.  Convenience for callers that
    need no other tracer ({!Pipeline.set_tracer} holds a single
    callback — multiplex manually if you also want text/Chrome
    tracing). *)

(** {1 Inspection} *)

type interval = {
  iv_seq : int;
  iv_pc : int;
  iv_fetch : int;
  iv_issue : int option;
  iv_complete : int option;
  iv_commit : int option;
  iv_squash : int option;
  iv_stalls : (int * string) list;  (** (cycle, cause), oldest first *)
}

val intervals : t -> interval list
(** Recorded fetch instances, ordered by (sequence number, fetch
    cycle).  Sequence numbers repeat when a squashed instruction's seq
    was reused by a re-fetch — each instance keeps its own record, so
    wrong-path work stays visible. *)

val recorded : t -> int
(** Fetch instances currently recorded (after windowing). *)

val seen : t -> int
(** Fetches observed, including those outside the window. *)

(** {1 Rendering} *)

val to_string : ?meta:(string * string) list -> t -> string
(** The full Kanata 0004 log: [Kanata\t0004] header, a
    schema-versioned [#levioso-timeline] comment (plus one [#key\tvalue]
    comment per [meta] pair — Konata ignores [#] lines), then the
    cycle-ordered op stream.  Byte-deterministic for a given recording
    (golden-tested). *)

val write : ?meta:(string * string) list -> t -> out_channel -> unit
(** {!to_string}, written to a channel. *)
