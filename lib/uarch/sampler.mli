(** Two-tier sampled simulation (SMARTS-style systematic sampling).

    The fast tier executes the program architecturally on
    {!Levioso_ir.Emulator.run_steps} while keeping the long-lived
    microarchitectural state — cache hierarchy and branch predictor —
    functionally warm through the emulator's observation hooks.  At the
    head of every sampling period the detailed tier takes over: a
    {!Pipeline} {e adopting} the shared memory, hierarchy and predictor
    in place (created for the first interval, {!Pipeline.restart}ed for
    every later one) runs [warmup] instructions to fill the
    short-lived structures (ROB, LSQ, in-flight misses), then measures
    [interval] instructions in full cycle-level detail.  Total cycles are
    extrapolated from the instruction-weighted CPI of the measured
    intervals, with a 95%-confidence error bound from their dispersion.

    The architectural results are exact (the fast tier is the oracle
    emulator); only the cycle count is an estimate.

    Memory: after its first interval a run allocates only each
    interval's fresh stats, stall table and policy state — no memory
    image and no window.  The [cfg.mem_words] image (8 MB at the default
    config) is one per domain, kept in domain-local storage and re-zeroed
    at the start of each run, so every domain that has sampled keeps
    that much resident between runs.  A run takes the image for its
    duration; a run nested inside another's [mem_init], or the first run
    after one that raised, allocates a fresh image instead.  Results
    never depend on which image a run got. *)

type spec = {
  interval : int;  (** instructions measured in detail per sample *)
  warmup : int;  (** detailed instructions discarded before measuring *)
  period : int;
      (** one interval in [period] is sampled; the rest fast-forward *)
}

val default_period : int
(** 10 — used when a spec string omits [:P]. *)

val parse : string -> (spec option, string) result
(** ["off"] → [Ok None]; ["N:W"] or ["N:W:P"] → [Ok (Some spec)];
    anything else → [Error message].  Requires [N > 0], [W >= 0],
    [P >= 1]. *)

val spec_to_string : spec -> string

type result = {
  estimated_cycles : int;  (** extrapolated total cycles *)
  error_pct : float;
      (** 95% confidence half-width of the per-interval CPI as a
          percentage of its mean; 0.0 with fewer than two intervals *)
  intervals : int;  (** measured intervals *)
  measured_instrs : int;
  detailed_instrs : int;  (** warmup + measured (+ commit-width overshoot) *)
  total_instrs : int;  (** instructions retired architecturally *)
  stats : Sim_stats.t;
      (** pooled detailed stats over the whole detailed portion (warmup
          included, matching [stall] span for span so the summary's
          stall-breakdown invariants hold); [stats.cycles] is the
          detailed cycle count, not the estimate *)
  stall : Levioso_telemetry.Stall.t;
      (** pooled per-PC stall attribution of the detailed intervals
          (warmup included) *)
  hierarchy : Cache.Hierarchy.h;
      (** the shared hierarchy, for access-counter reporting; counters
          cover warming accesses too *)
  spec : spec;
}

val warming_hooks :
  Config.t -> Cache.Hierarchy.h -> Predictor.t -> Levioso_ir.Emulator.hooks
(** The fast tier's functional-warming observation hooks: cache fills on
    loads (plus the next-line prefetcher mirror), write-allocate at
    stores, flushes, and committed-path predictor training.  Exposed so
    checkpoint users (and tests) can warm exactly the way the sampled
    engine does. *)

val run :
  ?mem_init:(int array -> unit) ->
  ?fuel:int ->
  spec ->
  Config.t ->
  policy:Pipeline.policy_maker ->
  Levioso_ir.Ir.program ->
  result
(** Run [program] to completion under sampling.  [mem_init] is applied
    once to the zeroed memory image (interval pipelines never re-run it).
    It must not keep a reference to the array: the image belongs to the
    domain and the next run in it re-zeroes and overwrites it.  Nothing
    in the result refers to the image.
    @raise Levioso_ir.Emulator.Out_of_fuel past [fuel] (default 1G)
    architectural instructions. *)

val to_json : result -> Levioso_telemetry.Json.t
(** The sampling block of a run summary: estimate, error bound, interval
    accounting and the spec — everything needed to judge the estimate. *)
