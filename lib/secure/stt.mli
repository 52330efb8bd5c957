(** Speculative taint tracking (the stand-in for the paper's second prior
    defense, 43% overhead in the abstract; modelled on STT, Yu et al.,
    MICRO'19).

    Rules implemented:

    - every load is an {e access instruction}: it may execute speculatively
      even under unresolved branches, and its result is {e tainted} with
      the load's own sequence number (a taint {e root});
    - taint propagates through register data flow at rename time;
    - a {e transmitter} (load/flush — instructions whose execution emits a
      cache signal derived from their operands) may begin execution only
      when every taint root feeding its operands is {e bound}: the root
      load has no older unresolved branch (its visibility point has
      passed);
    - {e branches} with tainted operands are gated the same way: resolving
      a branch on speculative data changes the squash pattern, an implicit
      channel STT explicitly closes (and a large share of its cost on
      memory-dependent-branch code);
    - taint sets are capped at the hardware budget
      ({!Levioso_uarch.Config.t}[.depset_budget]); overflow degrades to
      "stall while any older unresolved branch exists".

    Representation: one {!Levioso_uarch.Slot_mask} row per ROB arena
    slot naming the in-flight root loads of the value, a conservative
    flag per slot, and the column of a root cleared when it commits.
    Decode also records the youngest operand root and the youngest
    conservative producer, so the issue check is a few comparisons, not
    a re-union of producer taints.

    The deliberate security gap this reproduces from the paper: data that
    was loaded {e non-speculatively} (or lives in registers) is never
    tainted, so a wrong-path transmitter whose operands are
    non-speculative executes freely and leaks — the constant-time threat
    model STT does not cover.  Table 2 demonstrates exactly this. *)

val maker : Levioso_uarch.Pipeline.policy_maker
