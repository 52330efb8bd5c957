(** Seeded, structured IR program generation — the fuzzing subsystem's
    input source, promoted from the ad-hoc generator that used to live in
    [test/test_props.ml] (which now re-exports this module).

    Two families of programs:

    - {!random_program}: unconstrained structured programs (nested
      if/else, bounded count-down loops, store/load aliasing windows,
      [flush]/[rdcycle]) for differential and round-trip oracles.
      Termination is guaranteed by construction: every loop is a
      [for_down] over a dedicated counter register (r11–r14) that no
      generated statement may write.
    - {!ni_case}: programs for the two-run {e noninterference} oracle.
      Every architectural memory access is confined to a public window by
      an explicit mask-and-rebase instruction sequence, and one or two
      Spectre-v1-style gadgets are woven between the public blocks: a
      bounds check whose guard loads through a flushed pointer
      indirection (so the branch resolves late), trained by benign
      rounds, aimed out of bounds at a planted secret slot on the final
      round, transmitting through a per-gadget flushed probe array.  The
      architectural execution provably never reads a secret, so {e any}
      secret-dependence of the final machine state, cache probe trace or
      cycle count is a speculative leak. *)

(** {1 Shared layout} *)

val default_config : Levioso_uarch.Config.t
(** The configuration fuzz oracles simulate under: 4096 memory words, a
    48-entry window and a bimodal predictor (small enough to be fast,
    big enough to speculate deeply). *)

(** {1 Unconstrained programs} *)

val random_program : int -> Levioso_ir.Ir.program
(** [random_program seed] — deterministic in [seed]. *)

val mem_init : int -> int array -> unit
(** Fill the data window with seed-derived values (the memory image the
    differential oracles run against). *)

(** {1 Noninterference cases} *)

type ni_case = {
  program : Levioso_ir.Ir.program;
  num_secrets : int;  (** one secret slot per gadget *)
  secret_addrs : int array;  (** word addresses of the planted secrets *)
  probe_addrs : int array;
      (** first word of every probe line, across all gadgets — the
          attacker-observable cache locations *)
  mem_init : secrets:int array -> int array -> unit;
      (** initialize public memory (seed-derived, secret-independent) and
          plant [secrets] (length [num_secrets], values in [\[0, 32)],
          one per probe line) into the secret slots *)
}

val ni_case : int -> ni_case
(** [ni_case seed] — deterministic in [seed].  Built for
    {!default_config} (memory size, cache line width). *)

val ni_secret_pair : int -> ni_case -> int array * int array
(** [ni_secret_pair seed case] draws the two secret vectors for the two
    runs; every slot differs between the vectors, so a leak of any slot
    is observable. *)

(** {1 Random JSON trees} *)

val json : int -> Levioso_telemetry.Json.t
(** [json seed] — a random JSON tree, deterministic in [seed], built
    only from values that survive a print/parse round trip exactly
    (floats are quarter-integers; strings draw from printable ASCII and
    the escaped control characters).  For the serializer round-trip
    property. *)
