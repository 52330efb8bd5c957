(** Configuration of the simulated out-of-order core.

    The default configuration models a modest modern OoO core: a 192-entry
    window, 4-wide front end, gshare branch prediction and a two-level
    cache hierarchy.  All evaluation sweeps are expressed as updates of
    this record. *)

type predictor_kind =
  | Always_taken  (** static: predict every branch taken *)
  | Bimodal  (** per-pc 2-bit saturating counters *)
  | Gshare  (** global-history-xor-pc indexed 2-bit counters *)
  | Tage  (** tagged geometric-history predictor (see {!Tage}) *)

type cache_geometry = {
  sets : int;  (** number of sets (power of two) *)
  ways : int;  (** associativity *)
  line_words : int;  (** words per line (power of two) *)
  hit_latency : int;  (** cycles *)
}

type t = {
  rob_size : int;
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  alu_latency : int;
  mul_latency : int;
  div_latency : int;
  branch_exec_latency : int;  (** cycles from issue to resolution *)
  redirect_penalty : int;  (** front-end bubble after a squash *)
  forward_latency : int;  (** store-to-load forwarding *)
  l1 : cache_geometry;
  l2 : cache_geometry;
  memory_latency : int;  (** cycles for an L2 miss *)
  mshrs : int;
      (** miss-status holding registers: maximum concurrently outstanding
          L1 misses; further missing loads stall at issue (structural) *)
  next_line_prefetch : bool;
      (** on a demand L1 miss, also fill the next line.  Off by default:
          prefetching widens the cache side channel (a wrong-path load
          drags a neighbour line in) and real Spectre PoCs space their
          probe arrays to dodge it — see the prefetcher tests *)
  mem_words : int;  (** simulated memory size, power of two *)
  predictor : predictor_kind;
  predictor_bits : int;  (** log2 of the counter-table size *)
  depset_budget : int;
      (** Levioso/STT dependency-set hardware budget; overflowing sets
          degrade soundly to "depends on everything older" *)
}

val default : t

val predictor_kind_to_string : predictor_kind -> string

val predictor_kind_of_string : string -> (predictor_kind, string) result

val to_json : t -> Levioso_telemetry.Json.t
(** Wire codec for the simulation service.  Every field is serialized;
    {!of_json} of the result is structurally equal to the input, so the
    round-tripped config produces the same cache key. *)

val of_json : Levioso_telemetry.Json.t -> (t, string) result
(** Strict inverse of {!to_json}: any missing or mistyped field is an
    error (no defaulting — a silently defaulted field would key the
    result cache under the wrong digest). *)

val to_rows : t -> (string * string) list
(** Human-readable key/value dump (used by the configuration table). *)

val validate : t -> (unit, string) result
(** Sanity-check structural parameters: powers of two, positive widths,
    ways and latencies, and an upper bound on every size and latency.
    The error names the first offending field.  {!Pipeline.create},
    [Levioso_cli.Cli]'s [--rob]/[--budget] and the daemon's cell
    validation all refuse what this refuses. *)

val largest : t
(** The largest configuration {!validate} accepts: every bounded field
    at its upper bound, a TAGE predictor, and next-line prefetch on.

    {v
    rob_size                              <= 2048
    fetch/issue/commit_width              <= 32
    every latency, redirect_penalty       <= 1000
    mem_words                             <= 2^22
    l1/l2 sets                            <= 2^14
    l1/l2 ways                            <= 32
    l1/l2 line_words                      <= 64
    mshrs, depset_budget                  <= 256
    predictor_bits                        <= 16
    v}

    The bounds admit every value the bench sweeps, tests and docs use
    (fig5's ROB sizes, [levioso_sim --rob 384], [levioso_serve stress]'s
    ROB 64 + i).  What they are for is a ceiling on
    [Pipeline.create]: the wake rows (and STT's and Levioso's
    dependency rows) are quadratic in the ROB arena, the completion
    wheel is the largest latency times the window, and the caches are
    sets × ways.  Under every policy, [Pipeline.create] on [largest]
    allocates under 10M words (80 MiB on a 64-bit host) beyond what is
    proportional to the program; [test/test_config.ml] pins it.  For
    scale, a ROB of 100000 alone would need 4.3 GB of wake rows. *)
