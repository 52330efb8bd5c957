(** Speculative information-flow (taint) traces: the causal chain from a
    mispredicted branch through a secret-tainted load to the transmitter
    that touched the cache.

    The pipeline emits a flat stream of {!event}s (one per interesting
    micro-architectural step); this module turns the stream into a leak
    graph of instruction nodes connected by data, address and speculation
    edges, extracts the backward-closed chains that end in a transmitter,
    and renders them deterministically — as schema-versioned JSON, as a
    JSONL event log, or as stable text for golden tests and
    [levioso_fuzz --replay].

    Node identifiers are allocated by the producer (the pipeline) and are
    monotonic across the whole run — unlike sequence numbers, which are
    reused after a squash.  Everything in this module keys on node ids. *)

type kind = Branch | Load | Store | Flush | Alu | Other

type dep =
  | Data  (** value of the source feeds the value of the destination *)
  | Address  (** value of the source feeds an address computation *)
  | Speculation  (** destination executed under the source's prediction *)

type event =
  | Node of { id : int; seq : int; pc : int; kind : kind; disasm : string }
      (** a new instruction node enters the graph *)
  | Source of { id : int; addr : int }
      (** node [id] loaded from secret address [addr]: taint is born *)
  | Edge of { src : int; dst : int; dep : dep }
  | Transmit of { id : int; addr : int }
      (** node [id] touched the cache at a tainted address [addr] *)
  | Resolved of { id : int; mispredicted : bool }
      (** branch node [id] resolved *)
  | Committed of { id : int }
  | Squashed of { id : int }

val event_to_json : cycle:int -> event -> Json.t
(** One JSONL record: the event plus the cycle it happened on. *)

(** {1 Leak-graph accumulator} *)

type t

val create : unit -> t

val feed : t -> cycle:int -> event -> unit

val is_empty : t -> bool
(** No transmit ever fired — the leak graph has no chains. *)

val chains : ?probe_filter:(int -> bool) -> t -> int list list
(** Backward closure (over data/address/speculation edges) from each
    transmit node, oldest-node-first within a chain, chains ordered by
    their transmit node id.  [probe_filter] keeps only transmits whose
    cache-visible address satisfies it; if the filter would discard every
    chain, all chains are returned instead (the probe delta may sit on a
    different line than the access that caused it). *)

val to_json : ?probe_filter:(int -> bool) -> t -> Json.t
(** Schema-tagged object with [nodes], [edges] and [chains]. *)

val render : ?probe_filter:(int -> bool) -> t -> string
(** Byte-deterministic text rendering: a header, one stats line, then
    each chain as an indented node list with its incoming edges. *)

(** {1 CLI helpers} *)

val parse_range : what:string -> string -> (int * int, string) result
(** Parse ["A:B"] into [(a, b)] with [0 <= a <= b].  On malformed input
    the error message names [what], quotes the offending value and states
    the expected form — suitable for printing verbatim from a CLI. *)
