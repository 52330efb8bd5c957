(** Instruction-lifecycle timelines.

    Consumes the pipeline's stage events (fetch / issue / complete /
    commit / branch-resolve / squash) plus the per-cycle
    stall-attribution hook and renders a pipeline-viewer trace in the
    Kanata 0004 log format, loadable by Konata
    (https://github.com/shioyadan/Konata).

    The module is deliberately generic: it knows nothing about the
    simulator's instruction or stall types — callers feed it cycles,
    sequence numbers, PCs and pre-rendered cause strings.  The
    [Levioso_uarch.Konata] adapter does the translation from
    [Pipeline.event] / [Stall.cause].

    Stage mapping (lane 0):
    - [F]  the fetch cycle;
    - [I]  in-window waiting to issue (this is where stall-cause lane-1
           segments and detail labels land);
    - [X]  issue to completion;
    - [C]  completed, waiting to commit (instructions that are done at
           dispatch — jumps, halt — go straight from [F] to [C]).

    Committed instructions get a retire record; squashed instructions a
    flush record, so wrong-path work shows up struck-through in Konata.

    Recording is observational only: the builder never mutates or
    queries the pipeline, so simulation results are bit-identical with a
    timeline attached or not (asserted by test). *)

type t

val format_version : int
(** Version of the [#levioso-timeline] header comment; bumped on any
    change to how the trace is rendered (golden tests pin the bytes). *)

val create : ?window:int * int -> ?disasm:(int -> string) -> unit -> t
(** [window = (a, b)] records only instructions fetched in cycles
    [a..b] inclusive (events for other instructions are dropped on
    arrival, so memory stays proportional to the window).
    [disasm pc] renders the left-pane label for an instruction at
    static [pc]; defaults to ["pc=<n>"].
    @raise Invalid_argument if [a > b] or [a < 0]. *)

(** {1 Recording} — call in simulation order; cycles must be
    non-decreasing overall and increasing per instruction stage. *)

val fetch : t -> cycle:int -> seq:int -> pc:int -> unit
val issue : t -> cycle:int -> seq:int -> unit
val complete : t -> cycle:int -> seq:int -> unit
val commit : t -> cycle:int -> seq:int -> unit

val resolve : t -> cycle:int -> seq:int -> taken:bool -> mispredicted:bool -> unit
(** Branch resolution; recorded as a hover detail label. *)

val squash : t -> cycle:int -> boundary:int -> count:int -> unit
(** Squash of the [count] instructions younger than [boundary]
    (sequence numbers [boundary+1 .. boundary+count]). *)

val stall : t -> cycle:int -> seq:int -> cause:string -> code:string -> unit
(** One waiting cycle charged to [cause] (full name, for hover text);
    [code] is the short lane-1 stage label Konata colors by (e.g.
    ["Gp"] for a policy gate).  Consecutive cycles with the same cause
    are merged into one segment at render time. *)

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

val to_konata_string : ?meta:(string * string) list -> t -> string
(** The full Kanata 0004 log: [Kanata\t0004] header, a
    schema-versioned [#levioso-timeline] comment (plus one [#key\tvalue]
    comment per [meta] pair — Konata ignores [#] lines), then the
    cycle-ordered op stream.  Byte-deterministic for a given recording
    (golden-tested). *)

val write_konata : ?meta:(string * string) list -> t -> out_channel -> unit
