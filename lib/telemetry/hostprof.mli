(** Host self-profiling: wall clock + allocator behavior per phase.

    Wraps a computation with [Unix.gettimeofday] and reads this domain's
    [Gc.counters] between two forced minor collections, so every JSON
    summary and bench-matrix cell can carry a [host] section.  On one
    domain the word counts of a deterministic computation are exact and
    repeatable, which is what tier-1's allocation pin
    ([test/golden_alloc_quick.txt]) relies on; each span also counts the
    few words [measure] allocates itself, which a [measure ignore] span
    reads.  Wall clock is not repeatable, which is why [host] sections
    are kept out of the byte-compared simulation artifacts and only
    attached to timing-oriented ones ([BENCH_matrix.json] cells,
    [levioso_sim --json] runs). *)

type span = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;  (** peak major-heap size over the span *)
}

val measure : (unit -> 'a) -> 'a * span
(** Runs the thunk on the calling domain; GC deltas are per-domain
    (OCaml 5), so the span reflects the thunk's own allocation as long
    as it does not itself spawn domains. *)

val add : span -> span -> span
(** Componentwise sum; [top_heap_words] is the max. *)

val zero : span

val alloc_words : span -> float
(** Words allocated: minor + major - promoted, so promotions are not
    double-counted. *)

val to_json : span -> Json.t

val phases_to_json : (string * span) list -> Json.t
(** [{"phases": {name: span, ...}, "total": span}] — the [host]
    section attached to summaries and bench cells. *)
