(** Restriction provenance: one structured event per policy restriction.

    Stall attribution ({!Stall}) says {e where} cycles went; this module
    says {e why}.  Every time a defense policy refuses [may_execute] for
    an instruction, the pipeline opens a restriction episode; when the
    instruction finally issues (or is squashed) the episode closes and
    one {!event} is recorded carrying the static PC, dynamic sequence
    number, the policy's own explanation of the decision ({!reason}),
    how many cycles the refusal cost, and — the paper's fig2/fig3
    motivating claim, measured rather than asserted — whether the
    restriction was {e necessary}: an instruction restricted while no
    older unresolved branch is a {e true} (static) branch dependency was
    restricted unnecessarily.

    Events land in a bounded ring buffer (recent raw events for
    inspection) and are folded into per-PC / per-reason aggregates that
    are {e not} bounded — the necessary/unnecessary split always covers
    the whole run.  An optional {!Trace} sink streams every event as
    JSONL for offline analysis.

    The necessity classifier is injected at {!create} time (built from
    [lib/analysis/branch_dep] by [Levioso_core.Explain]); this module
    stays dependency-free. *)

(** Why the policy restricted the instruction, as reported by the policy
    itself via its [explain] callback. *)
type reason =
  | Branch_dep of (int * int) list
      (** gated behind unresolved branches [(seq, pc)], oldest first *)
  | Taint of (int * int) list
      (** operands tainted by speculative root loads [(seq, pc)]
          (STT/NDA) *)
  | Overflow
      (** the hardware tracking budget overflowed; the policy fell back
          to conservative gating *)
  | Unspecified  (** the policy offered no explanation *)

type outcome =
  | Issued  (** the episode ended with the instruction issuing *)
  | Squashed  (** the instruction was squashed while restricted *)

type event = {
  seq : int;  (** dynamic sequence number *)
  pc : int;  (** static PC *)
  policy : string;
  reason : reason;
  necessary : bool;
      (** some older unresolved branch at first refusal was a true
          static dependency of [pc] *)
  cycles : int;  (** cycles the policy refused this instruction *)
  end_cycle : int;  (** cycle the episode closed *)
  outcome : outcome;
}

type t

val create :
  ?capacity:int ->
  ?is_true_dep:(pc:int -> branch_pc:int -> bool) ->
  unit ->
  t
(** [capacity] bounds the raw-event ring (default 4096; aggregates are
    unaffected).  [is_true_dep] is the static branch-dependency oracle;
    when omitted every restriction classifies as necessary (no static
    information). *)

val necessary : t -> pc:int -> branch_pcs:int list -> bool
(** Does any of [branch_pcs] truly gate [pc] per the injected
    classifier?  [false] on an empty list. *)

val record : t -> event -> unit

val attach_sink : t -> Trace.sink -> unit
(** Stream every subsequently recorded event to [sink] as a
    [stage = "restrict"] trace record (cycle = episode end). *)

(** {1 Aggregates} (whole-run, unbounded) *)

val total_events : t -> int
val total_cycles : t -> int

val necessary_cycles : t -> int
val unnecessary_cycles : t -> int
val necessary_events : t -> int
val unnecessary_events : t -> int

val unnecessary_share : t -> float
(** [unnecessary_cycles / total_cycles]; [0.0] when nothing was
    restricted. *)

val by_reason : t -> (string * int * int) list
(** Per reason kind, fixed order: [(kind, events, cycles)]. *)

val top_pcs : t -> k:int -> (int * int * int * int) list
(** The [k] PCs with the most restriction cycles, descending (PC
    ascending on ties): [(pc, events, necessary_cycles,
    unnecessary_cycles)]. *)

(** {1 Inspection and serialization} *)

val recent : t -> event list
(** Ring contents, oldest first (at most [capacity] events). *)

val dropped : t -> int
(** Events evicted from the ring (still aggregated). *)

val to_json : ?top_k:int -> t -> Json.t
(** [{schema_version, events, cycles, dropped_events,
    necessary: {events, cycles}, unnecessary: {events, cycles},
    unnecessary_share, by_reason: {...}, top_pcs: [...]}];
    [top_k] defaults to 10.  Deterministic. *)

val event_to_json : event -> Json.t
