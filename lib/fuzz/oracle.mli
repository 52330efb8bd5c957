(** The fuzzing oracles: properties that must hold on every generated
    input, each packaged with enough context to shrink and persist a
    failure.

    - {b arch-diff}: under {e every} registered policy, the pipeline's
      final registers, memory and retired count must equal the
      architectural emulator's — speculation control must never change
      architectural results.  For the total-blocking policies (fence,
      delay) the squashed-transmitter count must additionally be zero.
    - {b lang-diff}: a random Lev source program must compile, and the
      compiled IR run on the emulator must produce exactly the memory
      image of the reference AST interpreter; the optimizer must preserve
      that image.
    - {b roundtrip-text}: [program_to_string] → [Parser.parse] is the
      identity.
    - {b roundtrip-binary}: binary encode → decode preserves the program
      (modulo the encoder's documented canonicalizations) and the
      compiler's reconvergence hints ride through the branch words intact.
    - {b noninterference}: the two-run security oracle — a program whose
      architectural execution provably never reads the planted secrets is
      run twice with different secrets under every policy that stops
      speculatively loaded secrets ({!Levioso_core.Registry.stops});
      the attacker view (cycles, retired count, registers, public memory,
      cache probe trace) must be bit-identical.  The same pair run under
      [unsafe] is expected to diverge, which validates the oracle's power
      and is reported as an extra counter, not a failure. *)

type fail = {
  detail : string;  (** human-readable description of the divergence *)
  program : Levioso_ir.Ir.program;  (** the failing input *)
  source : string option;  (** Lev source, for compiler-path failures *)
  still_fails : (Levioso_ir.Ir.program -> bool) option;
      (** shrinker predicate: does a candidate program still exhibit
          this failure?  [None] when the failure is not meaningfully
          shrinkable at the IR level (e.g. a source-level compile
          error). *)
  leak : (Levioso_ir.Ir.program -> string option) option;
      (** leak provenance: re-run a (typically shrunk) reproduction with
          the speculative flow tracer and render the leak chain —
          mispredicted branch, tainted load, transmitter, probe address.
          Only the noninterference oracle provides this; [None] when the
          run produced no taint flow. *)
}

type verdict =
  | Pass
  | Fail of fail

type outcome = {
  verdict : verdict;
  extras : (string * int) list;
      (** oracle-specific side counters (e.g. unsafe-baseline
          divergences observed by the noninterference oracle) *)
}

type t = {
  name : string;
  describe : string;
  run : config:Levioso_uarch.Config.t -> seed:int -> outcome;
}

val arch_diff : t
val lang_diff : t
val roundtrip_text : t
val roundtrip_binary : t
val noninterference : t

val all : t list
(** Every oracle, in the order above. *)

val names : string list

val find : string -> t option

val input_of :
  t -> seed:int -> Levioso_ir.Ir.program * string option
(** The generated input an oracle runs at a seed (program, and the Lev
    source for the compiler-path oracle) — what {!Corpus} records when a
    seed is saved as a regression anchor rather than captured from a
    failure. *)
