(** The fuzzing campaign driver: a deterministic, optionally parallel
    loop over (oracle, seed) pairs with shrinking and corpus persistence
    on failure.

    Iteration [i] runs oracle [i mod n] on a seed derived from the base
    seed by a SplitMix64 finalizer — O(1) random access, so any subset
    of iterations can be re-run independently and worker scheduling
    cannot perturb inputs.  Results are folded into counters {e in input
    order} on the calling domain, so a run with [jobs = k] is
    bit-identical to the same run with [jobs = 1] (shrinking and corpus
    writes also happen on the calling domain, serially).

    [time_budget] trades that determinism for wall-clock control: the
    loop stops at the first chunk boundary past the budget, so the
    iteration count then depends on machine speed. *)

type options = {
  seed : int;  (** base seed; iteration seeds derive from it *)
  iters : int;
      (** total iterations; [0] means unlimited (requires
          [time_budget]) *)
  time_budget : float option;  (** wall-clock seconds, [None] = no cap *)
  jobs : int;  (** worker domains; [<= 1] runs serially in-process *)
  oracles : Oracle.t list;  (** round-robin rotation, in order *)
  corpus_dir : string option;
      (** where to persist shrunk failures; [None] disables
          persistence *)
  shrink_budget : int;  (** predicate evaluations per failure *)
  max_failures : int option;
      (** stop at the first chunk boundary once this many failures have
          been collected (shrinking every failure of a badly broken
          policy is expensive and redundant); [None] = keep going *)
  config : Levioso_uarch.Config.t;  (** simulated machine *)
  on_progress : (executed:int -> failures:int -> unit) option;
      (** called on the calling domain after each chunk is folded in —
          long campaigns are no longer silent until the end.  Strictly
          observational (feed it a [Levioso_telemetry.Monitor]): it must
          not influence the run, and the report stays bit-identical with
          or without it. *)
}

val default_options : options
(** seed 1, 500 iterations, no time budget, serial, every oracle,
    {!Corpus.default_dir}, shrink budget 2000, at most 20 failures,
    {!Gen.default_config}, no progress callback. *)

type failure = {
  oracle : string;
  seed : int;  (** the derived iteration seed (re-runs the case alone) *)
  detail : string;
  original_len : int;  (** instructions before shrinking *)
  shrunk_len : int;  (** instructions after shrinking *)
  program : Levioso_ir.Ir.program;  (** the shrunk reproduction *)
  source : string option;
  path : string option;  (** corpus file, when persistence is on *)
  leak : string option;
      (** rendered speculative leak chain for the shrunk reproduction
          (noninterference failures only — see {!Oracle.fail}) *)
  leak_path : string option;
      (** [.leaktrace] sidecar next to [path] holding [leak], for CI
          artifact upload *)
}

type report = {
  base_seed : int;
  iterations : int;  (** iterations actually executed *)
  failures : failure list;  (** in iteration order *)
  counters : (string * int) list;
      (** [<oracle>/runs], [<oracle>/failures], and each oracle's extra
          counters (e.g. [noninterference/ni_unsafe_divergence]), sorted
          by name *)
}

val iter_seed : int -> int -> int
(** [iter_seed base i] — the derived seed for iteration [i] (exposed so
    tests and corpus replays can name individual cases). *)

val run : options -> report
(** @raise Invalid_argument when [iters = 0] without a [time_budget]. *)

val to_json : report -> Levioso_telemetry.Json.t
(** Machine-readable report.  Deliberately excludes wall-clock time and
    job count, so byte-equality across [jobs] settings holds. *)

val print : out_channel -> report -> unit
(** Human-readable summary (same determinism guarantee). *)
