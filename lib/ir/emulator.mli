(** Functional (architectural) executor.

    The emulator defines the architectural semantics of the ISA and serves
    as the oracle against which the out-of-order pipeline is checked: for
    any program and any secure-speculation policy, the pipeline must commit
    exactly the state the emulator computes.

    [Rdcycle] is the one deliberately timing-dependent instruction: here it
    returns the number of instructions retired so far, which differs from
    the pipeline's cycle counter.  Oracle-equivalence checks therefore only
    apply to programs that do not consume [Rdcycle] results in
    architecturally visible ways (none of the workloads do; only attack
    probes use it). *)

type state = {
  regs : int array;  (** architectural register file; index 0 reads as 0 *)
  mem : int array;  (** word-addressed memory; length is a power of two *)
  mutable pc : int;
  mutable retired : int;  (** instructions retired so far *)
  mutable halted : bool;
  program : Ir.program;
  mutable decoded : int array;
      (** lazily built flat decode of [program] used by {!run_steps};
          empty until first use.  Treat as private. *)
}

val create : ?mem_words:int -> ?memory:int array -> Ir.program -> state
(** Fresh state: zeroed registers and memory (default 65536 words), pc 0.
    [memory] adopts an existing array by aliasing instead of allocating
    one ([mem_words] is then ignored) — this is how the two-tier sampled
    engine shares one memory image between tiers.
    @raise Invalid_argument when the memory size is not a power of two
    (the message carries the offending value). *)

exception Out_of_fuel
(** Raised by {!run} when the step budget is exhausted. *)

val step : state -> unit
(** Execute one instruction.  No-op once [halted]. *)

val run : ?fuel:int -> state -> unit
(** Run to [Halt].  @raise Out_of_fuel after [fuel] steps (default 10M). *)

val run_program :
  ?mem_words:int -> ?fuel:int -> ?init:(state -> unit) -> Ir.program -> state
(** Convenience: create, apply [init] (e.g. to preload memory), run. *)

(** {1 Batched fast path}

    The fast architectural tier of the two-tier sampled engine.  The
    program is decoded once into a flat int array; stepping then runs a
    tail-recursive int loop with zero per-step minor allocation.
    Behaviorally identical to repeated {!step} (checked by unit test),
    including the quirks: [Halt] consumes one retired count, and
    [Rdcycle] observes the retired count {e before} its own
    increment. *)

type hooks = {
  h_load : int -> unit;  (** masked effective address of every load *)
  h_store : int -> unit;  (** masked effective address of every store *)
  h_flush : int -> unit;  (** masked effective address of every flush *)
  h_branch : pc:int -> taken:bool -> unit;
      (** every conditional branch, with its resolved direction *)
}
(** Observation points for functional warming: the sampled-simulation
    driver uses these to keep cache and predictor state warm while
    fast-forwarding.  Hooks must not mutate the emulator state. *)

val no_hooks : hooks

val run_steps : ?hooks:hooks -> state -> int -> int
(** [run_steps state n] executes up to [n] instructions and returns the
    number actually executed (less than [n] only when [Halt] retires or
    the machine was already halted, in which case 0).  [state.pc] and
    [state.retired] are updated on return, not per step. *)
