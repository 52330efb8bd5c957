(** Seeded generation of Lev {e source text}, exercising the full
    compiler path (lexer → parser → resolver → inlining codegen →
    optimizer) rather than just the codegen back end.

    Programs are generated as ASTs (so the reference interpreter can run
    them without a parse step), then printed to concrete syntax; the
    differential oracle compiles the {e printed text}, which makes the
    printer↔parser agreement part of what is being fuzzed.

    Guarantees by construction: the resolver accepts every program
    (helpers are declared before use, never recursive, called with the
    right arity); all loops count a dedicated variable down to zero, so
    execution always terminates; [load]s stay inside the seeded data
    window and [store]s inside a disjoint output window; [rdcycle] is
    never generated (its value differs between the interpreter and the
    machine, so it must not reach memory). *)

val mem_words : int
val data_base : int
(** Loads read from [\[data_base, data_base + 256)]. *)

val out_base : int
(** Stores write into [\[out_base, out_base + 64)]. *)

val random_source : int -> string
(** A random Lev program in concrete syntax, deterministic in [seed]; it
    lexes, parses and resolves. *)

val init_mem : int -> int array -> unit
(** Seed-derived contents for the data window. *)
