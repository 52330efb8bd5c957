(** The hardware-only baseline defenses the paper compares against.

    All of them are expressed as {!Levioso_uarch.Pipeline.policy} issue
    gates:

    - {!unsafe}: no restriction — the insecure performance baseline all
      normalized-execution-time figures divide by.
    - {!fence}: full serialization — {e no} instruction may begin execution
      while an older unresolved conditional branch is in flight.  The
      upper bound on restriction; models compiler-inserted lfences after
      every branch.
    - {!delay}: comprehensive delay-of-transmit — {e transmitters}
      (loads/flushes) may not begin execution while {e any} older branch is
      unresolved; everything else runs free.  This is the stand-in for the
      paper's first prior defense (51% overhead in the abstract): it
      protects both speculatively and non-speculatively loaded secrets but
      has no notion of which branches matter. *)

val unsafe : Levioso_uarch.Pipeline.policy_maker

val fence : Levioso_uarch.Pipeline.policy_maker

val delay : Levioso_uarch.Pipeline.policy_maker

val explain_branches :
  ?keep:(int -> bool) ->
  Levioso_uarch.Pipeline.t -> seq:int -> Levioso_telemetry.Audit.reason
(** Restriction provenance: the older unresolved branches that [keep]
    accepts (default: all), oldest first. *)
