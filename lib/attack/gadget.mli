(** Spectre attack programs, written in the simulator's own ISA.

    Every gadget follows the classic recipe: train the pattern history so
    a bounds/guard branch predicts the attacker's way, flush the guard's
    operands so the branch stays unresolved for a long window, then steer
    a wrong-path {e transmitter} whose address encodes the secret into
    the probe array.  The variants differ in where the secret comes from
    and where the transmitter sits — one gadget per
    {!Levioso_core.Registry.secret_class}, the distinction at the heart
    of the paper's security table:

    - {!bounds_check_bypass} (sandbox model): the secret is read by a
      {e speculative} out-of-bounds load.  Taint-tracking defenses cover
      this.
    - {!register_secret} (constant-time model): the secret was loaded
      {e non-speculatively} long before and sits in a register; only its
      transmission is speculative.  Taint-tracking defenses do {e not}
      cover this.
    - {!register_secret_reconverged}: the register secret again, but the
      mispredicted region only copies it into a register and the
      transmitter runs after the branch reconverges.  A defense that
      follows control dependence alone (levioso-ctrl) misses it. *)

type t = {
  name : string;
  secret_class : Levioso_core.Registry.secret_class;
      (** the threat model the gadget exercises *)
  program : Levioso_ir.Ir.program;
  mem_init : int array -> unit;
  secret : int;  (** the value the attacker tries to recover *)
}

val probe_base : int
(** Word address of the probe (flush+reload) array. *)

val probe_values : int
(** Number of distinct secret values encodable (one cache line each). *)

val probe_line_addr : int -> int
(** [probe_line_addr v] is the probe address encoding value [v]. *)

val timing_results_base : int
(** Where [~timing:true] programs store per-value reload times. *)

val oob_secret_addr : int
(** Word address of {!bounds_check_bypass}'s planted secret (the
    out-of-bounds slot past the bounds-checked array) — the address to
    seed a flow tracer's secret range with. *)

val bounds_check_bypass :
  ?training_rounds:int -> ?timing:bool -> secret:int -> unit -> t
(** Spectre-v1: out-of-bounds speculative read of a secret beyond a
    bounds-checked array.  [secret] must be in [\[0, probe_values)].
    With [~timing:true] the program additionally measures every probe
    line's reload latency with [rdcycle] and stores the measurements at
    {!timing_results_base} — the complete flush+reload attack then runs
    inside the simulated machine with no harness assistance. *)

val register_secret :
  ?training_rounds:int -> ?timing:bool -> secret:int -> unit -> t
(** The non-speculative-secret variant: the secret is architecturally
    loaded at program start and transmitted from a register on the wrong
    path of a mispredicted guard. *)

val register_secret_reconverged :
  ?training_rounds:int -> ?timing:bool -> secret:int -> unit -> t
(** The register secret transmitted past reconvergence: [w = decoy]
    before the guard, [w = secret & mask] under it ([mask] is 0 while
    training and [probe_values - 1] in the attack round), then
    [probe\[w << 3\]] after the guard reconverges.  Built by the same
    code as {!register_secret}. *)

type maker = ?training_rounds:int -> ?timing:bool -> secret:int -> unit -> t

val roster : (string * maker) list
(** One gadget per secret class, with a short label for table columns:
    [v1], [reg-secret], [reg-reconverged]. *)
