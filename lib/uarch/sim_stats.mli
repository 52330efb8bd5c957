(** Counters collected by one pipeline run.

    Everything the evaluation figures need comes from these counters plus
    the cache hierarchy's own counters. *)

type t = {
  mutable cycles : int;
  mutable committed : int;
  mutable committed_loads : int;
  mutable committed_stores : int;
  mutable committed_branches : int;
  mutable committed_transmitters : int;
  mutable fetched : int;
  mutable squashed : int;
  mutable mispredicts : int;
  mutable policy_stall_cycles : int;
      (** entry-cycles during which an operand-ready instruction was held
          back by the active defense *)
  mutable transmit_stall_cycles : int;
      (** the subset of [policy_stall_cycles] charged to transmitters *)
  mutable restricted_committed : int;
      (** committed instructions that were policy-stalled at least once *)
  mutable restricted_transmitters : int;
  mutable wrong_path_executed_loads : int;
      (** squashed loads that had already accessed the cache *)
  mutable wrong_path_transmits : (int * int) list;
      (** (squashing-branch pc, transmitter pc) pairs, newest first, capped *)
  mutable wrong_path_transmit_count : int;
      (** length of [wrong_path_transmits], maintained so recording stays
          O(1) *)
  mutable wrong_path_transmits_dropped : int;
  mutable max_rob_occupancy : int;
}

val create : unit -> t

val accumulate : t -> t -> unit
(** [accumulate dst src] adds [src]'s counters into [dst]
    ([max_rob_occupancy] takes the max) — how the sampled-simulation
    driver pools per-interval detailed stats. *)

val ipc : t -> float

val mpki : t -> float
(** Branch mispredictions per kilo committed instruction. *)

val record_wrong_path_transmit : t -> branch_pc:int -> pc:int -> unit
(** Appends to [wrong_path_transmits], keeping at most 50_000 events. *)

val to_json : t -> Levioso_telemetry.Json.t
(** Every counter plus derived [ipc]/[mpki], as a flat object.
    [wrong_path_transmits] serializes as its count, not the pair list. *)

val of_json : Levioso_telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}, used by the bench result cache to replay runs
    without re-simulating.  The [wrong_path_transmits] pair list is not
    serialized, so it comes back empty; its count round-trips. *)
