(** A small fixed-size pool of worker domains (OCaml 5 multicore).

    Built for the evaluation harness: the (workload x policy) simulation
    matrix is embarrassingly parallel, each cell owning all of its
    mutable state, so a bounded set of domains plus an order-preserving
    [map] is all the machinery needed.

    Semantics worth relying on:

    - {!map} returns results in input order, whatever order the workers
      finish in — parallel runs are output-identical to serial ones as
      long as [f] itself is deterministic and shares no mutable state.
    - A pool of size [<= 1] degenerates to plain [List.map] in the
      calling domain: no domains are spawned, no synchronization runs.
    - If [f] raises, {!map} re-raises the exception of the {e
      lowest-indexed} failing element (again independent of scheduling)
      after all submitted work has drained, so the pool stays usable. *)

type t

val create : ?size:int -> ?max_pending:int -> unit -> t
(** [create ?size ?max_pending ()] spawns [size] worker domains when
    [size > 1]; a pool of size 1 spawns none.  [size] defaults to
    [Domain.recommended_domain_count ()] and is clamped to at least 1.
    [max_pending] (clamped to at least 1) bounds the work queue: further
    submissions — {!map} elements and {!async} calls alike — block the
    submitting thread until a worker frees a slot.  This is the
    backpressure the long-lived daemon applies to over-eager clients;
    unbounded when omitted (the batch-harness default). *)

val size : t -> int
(** Worker parallelism of the pool (>= 1); 1 means serial. *)

val queue_depth : t -> int
(** Tasks submitted but not yet picked up by a worker — the daemon's
    queue-depth gauge.  Always 0 for a serial pool. *)

val default_size : unit -> int
(** [Domain.recommended_domain_count ()] — the [create] default, exposed
    so CLIs can report what [-j 0 (auto)] resolves to. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element on the pool's workers
    and returns the results in input order.

    @raise Invalid_argument if the pool has been shut down.
    @raise exn the exception raised by [f] on the lowest-indexed failing
    element, with its original backtrace, once all elements finished. *)

(** {1 Futures}

    Single-task scheduling for request/response servers: a long-lived
    pool accepts work as it arrives ({!async}) and each submitter blocks
    only when it needs its own result ({!await}), so independent client
    requests interleave freely on the same workers. *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** Schedule one task.  On a serial (size-1) pool the task runs
    immediately in the calling thread.  On a bounded pool this blocks
    while the queue is full (backpressure).

    @raise Invalid_argument if the pool has been shut down. *)

val await : 'a future -> 'a
(** Block until the task finished; returns its value or re-raises its
    exception with the original backtrace.  Callable from any thread,
    any number of times (a failed future re-raises on every await). *)

type times = { submitted_s : float; started_s : float; finished_s : float }
(** Wall-clock stamps ([Unix.gettimeofday]) of a task's life:
    [started_s - submitted_s] is queue wait, [finished_s - started_s]
    execution time. *)

val times : 'a future -> times option
(** [Some] once the task finished (successfully or not), [None] while
    it runs.  Purely observational — this is the hook the serve layer's
    latency accounting reads; the pool itself stays telemetry-free. *)

val shutdown : t -> unit
(** Joins all worker domains.  Idempotent.  Any later {!map} raises. *)

val with_pool : ?size:int -> ?max_pending:int -> (t -> 'a) -> 'a
(** [with_pool ?size ?max_pending f] runs [f] on a fresh pool and shuts
    it down afterwards, also on exception. *)
