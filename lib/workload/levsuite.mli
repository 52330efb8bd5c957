(** Workloads written in Lev source and built by the repository's own
    compiler (parse → resolve → codegen → optimizer).

    These complement the hand-scheduled DSL kernels in {!Suite}: compiler-
    generated code has different shapes (mov chains, inlined calls,
    materialized conditions), so running the same defenses over them checks
    that the evaluation's conclusions are not an artifact of hand-written
    IR.  Used by the appendix experiment [fig9] and the integration tests. *)

val all : Workload.t list
(** Four kernels: [lev-primes], [lev-crc], [lev-nbody], [lev-bubble]. *)

val find_exn : string -> Workload.t
(** @raise Invalid_argument on unknown names. *)
