(** Persistence of fuzzing reproductions as self-describing [.levir]
    files.

    A corpus file is a valid {!Levioso_ir.Parser} listing whose leading
    comment lines carry machine-readable metadata ([; key: value]):
    which oracle failed, the generator seed, the recorded verdict and a
    one-line detail, plus (for compiler-path failures) the original Lev
    source embedded as [; src:] lines.  Because metadata travels in
    comments, every corpus file also loads in any tool that reads plain
    listings.

    Checked-in corpus files double as regression anchors:
    {!replay} re-runs the named oracle at the recorded seed and checks
    that the live verdict still matches the recorded one — a [pass]
    entry failing (a regression) or a [fail] entry passing (a stale
    repro that should be pruned or re-recorded) are both reported. *)

type entry = {
  oracle : string;  (** oracle name ({!Oracle.names}) *)
  seed : int;  (** generator seed that produced the input *)
  verdict : string;  (** ["fail"] or ["pass"] *)
  detail : string;  (** one-line description of the divergence *)
  source : string option;  (** original Lev source, when applicable *)
  leak : string option;
      (** rendered speculative leak chain ([; leak:] lines) — attached
          by the campaign to noninterference failures *)
  program : Levioso_ir.Ir.program;  (** the (possibly shrunk) input *)
}

val default_dir : string
(** ["fuzz/corpus"], relative to the repository root. *)

val save : dir:string -> entry -> string
(** Write (creating [dir] if needed) and return the path. *)

val load : string -> (entry, string) result
(** Parse a corpus file back; [Error] on missing metadata or an
    unparseable program body. *)

val files : string -> string list
(** The [.levir] files under a directory, sorted; empty if the
    directory does not exist. *)

val replay :
  config:Levioso_uarch.Config.t -> entry -> (unit, string) result
(** Re-run [entry.oracle] at [entry.seed] and compare the live verdict
    with the recorded one (see above).  [Error] also covers unknown
    oracle names. *)
