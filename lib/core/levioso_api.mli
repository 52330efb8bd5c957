(** One-call entry points tying the whole system together: compile (when
    the scheme needs annotations), simulate under a defense, and return the
    finished pipeline for inspection.  This is the API the examples, CLI
    and benchmark harness use. *)

module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config

val simulate :
  ?config:Config.t ->
  ?mem_init:(int array -> unit) ->
  policy:string ->
  Levioso_ir.Ir.program ->
  Pipeline.t
(** Build a pipeline with the named defense (see {!Registry.names}), run
    the program to completion and return the machine.
    @raise Invalid_argument on unknown policy names
    @raise Pipeline.Deadlock on policy bugs (none of the shipped ones). *)

val check_against_emulator :
  ?config:Config.t ->
  ?mem_init:(int array -> unit) ->
  policy:string ->
  Levioso_ir.Ir.program ->
  (unit, string) result
(** Run both the pipeline and the architectural emulator; compare final
    registers and memory.  Defenses must never change architectural
    results — this is the oracle-equivalence check used throughout the
    test-suite. *)
