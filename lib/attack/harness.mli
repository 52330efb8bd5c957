(** Run attack gadgets under a defense and judge whether the secret leaked.

    Two observation modes:

    - {!run}: an omniscient cache probe — after the program halts, ask the
      simulated hierarchy which probe line is cached (the strongest
      realistic attacker: a co-resident prober with a perfect timing
      oracle).
    - {!run_timed}: self-contained — the gadget itself times every probe
      line with [rdcycle] (gadget built with [~timing:true]) and the
      verdict is read from the measurements it stored in simulated memory.

    A secret counts as recovered when exactly the probe line matching the
    secret is distinguishably hot. *)

type verdict =
  | Recovered of int  (** the attacker's best guess — equal to the secret *)
  | Wrong_guess of int  (** a distinguishable line existed but was wrong *)
  | No_signal  (** no probe line was distinguishable: defense held *)

val verdict_to_string : verdict -> string

val leaked : verdict -> bool
(** [Recovered]: the attacker read the secret. *)

val run :
  ?config:Levioso_uarch.Config.t -> policy:string -> Gadget.t -> verdict
(** Simulate the gadget under the named defense and probe the cache. *)

val run_timed :
  ?config:Levioso_uarch.Config.t -> policy:string -> Gadget.t -> verdict
(** Same, but the verdict comes from the gadget's own rdcycle
    measurements.  The gadget must have been built with [~timing:true]. *)
