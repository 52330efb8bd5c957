(** Differential overhead attribution between two runs.

    Takes two {!Summary.run}s for the same workload — a defense policy
    and a baseline (normally ["unsafe"]) — and charges the cycle
    difference to stall causes and static PCs:

    "defense X costs +N cycles (+P%), of which the policy gate accounts
    for M stall-cycles, Q% of the audited restriction cycles were
    unnecessary, concentrated at these top-K PCs."

    Runs come from {!Summary.read_runs}, so the diff works over
    [--json] files, bench matrices and [BENCH_matrix.json] trajectories
    alike, and a sampled run is charged its estimated cycles. *)

type pc_delta = {
  pc : int;
  policy_stalls : int;  (** total stall-cycles charged at this PC *)
  baseline_stalls : int;
  delta : int;  (** [policy_stalls - baseline_stalls] *)
  audit_necessary_cycles : int;
      (** necessary restriction cycles audited at this PC (0 without audit) *)
  audit_unnecessary_cycles : int;
}

type t = {
  workload : string;
  policy : string;
  baseline : string;
  policy_cycles : int;
  baseline_cycles : int;
  overhead_cycles : int;  (** [policy_cycles - baseline_cycles] *)
  overhead_pct : float;  (** 100 * overhead / baseline *)
  cause_delta : (string * int) list;
      (** per stall cause, policy minus baseline, taxonomy order *)
  audited_cycles : int;  (** total audited restriction cycles, 0 without audit *)
  audited_unnecessary_cycles : int;
  unnecessary_share : float;  (** of audited cycles; 0 without audit *)
  top_pcs : pc_delta list;  (** largest positive delta first *)
}

val compute : ?top_k:int -> baseline:Summary.run -> Summary.run -> t
(** [compute ~baseline run]: [top_k] (default 10) bounds [top_pcs].
    Cause and PC deltas are zero where a run carries no stall section;
    the audit fields are zero unless [run] was audited. *)

val to_json : t -> Levioso_telemetry.Json.t
(** Schema-tagged object mirroring the record. *)

val to_rows : t -> (string * string) list
(** Human-readable table for console output. *)
