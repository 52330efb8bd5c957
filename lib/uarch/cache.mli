(** Set-associative caches and the two-level hierarchy.

    Caches here track only which lines are present (tags + LRU), not data —
    data always comes from the backing memory array; the cache determines
    *latency* and, crucially for Spectre, *persistent microarchitectural
    state* that survives pipeline squashes.

    Addresses are word addresses; a line holds [line_words] consecutive
    words. *)

type t

val create : Config.cache_geometry -> t
(** @raise Invalid_argument unless [sets] and [line_words] are powers of
    two ({!Config.validate} requires both). *)

val line_of : t -> int -> int
(** Line address (word address / line size) of a non-negative word
    address. *)

val lookup : t -> int -> bool
(** Presence check that updates LRU on hit (a cache access). *)

val fill : t -> int -> unit
(** Insert the line containing the address, evicting LRU if needed. *)

val invalidate : t -> int -> unit
(** Drop the line containing the address, if present. *)

val probe : t -> int -> bool
(** Presence check with no LRU side effect (attack-harness oracle). *)

val reset : t -> unit

(** {1 Snapshots}

    Full microarchitectural state capture (tags + LRU order) for
    checkpointed simulation: a snapshot of a warmed cache seeds the
    detailed tier of the two-tier engine. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** @raise Invalid_argument when the snapshot came from a cache with a
    different geometry. *)

(** {1 Hierarchy} *)

module Hierarchy : sig
  type h

  type level =
    | L1
    | L2
    | Memory

  val create : Config.t -> h
  (** Both levels empty, every access counter at zero. *)

  val load : h -> int -> int * level
  (** [load h addr] performs a load access: returns the latency and the
      level that served it, filling lines on the way (this mutates cache
      state even for speculative wrong-path accesses — the side channel). *)

  val load_level : h -> int -> level
  (** Exactly [load] (same mutations, same counters) but returning only
      the serving level — the pipeline's allocation-free load path; pair
      with {!latency_of_level}. *)

  val latency_of_level : h -> level -> int
  (** The configured latency of a level (pure). *)

  val prefetch : h -> int -> unit
  (** Fill the line containing the address into L2 and L1 without counting
      as a demand access (the next-line prefetcher's fill path). *)

  val store_commit : h -> int -> unit
  (** Commit-time store: updates presence without stalling (write-allocate
      into L1/L2). *)

  val flush : h -> int -> unit
  (** Evict the line from every level (the [Flush] instruction). *)

  val probe : h -> int -> level
  (** Non-mutating: which level currently holds the address? *)

  val load_latency : h -> int -> int
  (** What [load] would cost right now, without mutating (timing oracle). *)

  val l1 : h -> t
  (** Direct access to the level-1 cache (tests and harnesses). *)

  val l2 : h -> t

  type hsnapshot
  (** Both levels' tag/LRU state (counters are not part of a snapshot). *)

  val snapshot : h -> hsnapshot

  val restore : h -> hsnapshot -> unit
  (** @raise Invalid_argument on a geometry mismatch. *)

  val stats : h -> (string * int) list
  (** Access counters: l1 hits/misses, l2 hits/misses. *)
end
