(** On-disk cache of finished (config, workload, policy) run summaries,
    shared by the bench harness, [levioso_sim] and the [levioso_serve]
    daemon.

    One JSON file per simulated cell, keyed by a digest of the full
    microarchitectural {!Config.t}, the workload and policy names, and a
    {e code-version stamp} (by default a digest of the running
    executable).  Any config tweak or rebuild therefore misses cleanly —
    there is no invalidation protocol, just keys that stop matching.

    Entries are sharded into 256 subdirectories by the first two hex
    characters of the key digest so many concurrent writers spread their
    directory traffic.

    The payload is whatever {!Summary.of_pipeline} produced, stored and
    replayed verbatim, so a cache-served [--json] report is bit-identical
    to a freshly simulated one.  Writes go through a unique temp file +
    rename, so N processes (and domains) racing on any mix of keys never
    expose a torn entry to a reader; unreadable or unparsable files are
    treated as misses. *)

type t

val create : ?stamp:string -> dir:string -> unit -> t
(** [stamp] defaults to a digest of the running executable
    ([Sys.executable_name]), or ["unstamped"] when it cannot be read: two
    {e different} binaries (say the daemon and a standalone bench) keep
    disjoint entry sets in the same directory unless both pass the same
    [stamp].  The directory is created lazily on the first {!store}. *)

val dir : t -> string
(** The store's root directory, as given to {!create}. *)

val config_key : Config.t -> string
(** Hex digest of the marshalled config — every field participates. *)

val path : t -> config:Config.t -> workload:string -> policy:string -> string
(** The sharded file a cell is stored at (exists or not). *)

val find :
  t -> config:Config.t -> workload:string -> policy:string ->
  Levioso_telemetry.Json.t option
(** [None] on missing, unreadable or unparsable entries (a number
    out of float range, such as [1e999], is unparsable). *)

val store :
  t -> config:Config.t -> workload:string -> policy:string ->
  Levioso_telemetry.Json.t -> unit
(** Atomic (unique temp file, then rename).  Concurrent stores — of
    distinct cells or even of the same key — are safe from any number of
    processes and domains: readers only ever observe complete entries,
    and the last writer of a key wins. *)

val prune : ?now:float -> t -> max_age_days:int -> int
(** Delete entries in the shard directories whose mtime is older than
    [max_age_days] days (plus any [.tmp] debris left by killed writers
    past the same horizon), and remove shard directories emptied by the
    sweep.  Returns the number
    of entries removed.  Deletion is a plain unlink, so concurrent
    readers of a pruned entry see an ordinary miss and concurrent
    writers are unaffected.  [now] (seconds since the epoch) defaults to
    the current time; it is exposed for tests. *)
