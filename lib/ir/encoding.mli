(** Binary instruction encoding.

    Each instruction packs into one 64-bit word; this grounds the paper's
    claim that the reconvergence hint costs one extra operand field on
    branches rather than a side table:

    {v
    bits  0..5   opcode
    bits  6..10  dst register
    bits 11..15  src-a register (or, branches: the compare register)
    bit  16      a is immediate (branches: flag moves to bit 6)
    bits 17..21  src-b register (branches: 16-bit immediate in 16..31)
    bit  22      b is immediate
    bits 23..27  src-c register (stores)
    bit  28      c is immediate
    bits 29..63  immediate payload (signed 35)
                 branches instead: target pc (32..47), hint pc+1 (48..63)
    v}

    Limits, reported as errors rather than silently mis-encoded: at most
    one non-zero immediate operand per non-branch instruction (zero
    immediates canonicalize to reads of the hard-wired zero register);
    branches compare a register against a register or 12-bit immediate
    (constant-on-the-left comparisons are mirrored automatically).  The
    textual and builder paths remain the primary interfaces — the encoder
    exists to validate the hardware story (the hint really fits in the
    branch word) and to measure static code size. *)

val mirror : Ir.cmp -> Ir.cmp
(** The comparison that holds with its operands swapped ([Lt] ↔ [Gt],
    [Le] ↔ [Ge]): how a constant-on-the-left branch is encoded. *)

type error = {
  pc : int;
  reason : string;
}

val encode_instr :
  ?hint:int -> Ir.instr -> (int64, string) result
(** [hint] is a branch's reconvergence pc (16 bits); only valid on
    conditional branches. *)

val decode_instr : int64 -> (Ir.instr * int option, string) result
(** Returns the instruction and, for branches, the decoded hint. *)

val encode :
  ?hints:(int -> int option) -> Ir.program -> (int64 array, error) result
(** [hints pc] supplies the reconvergence pc for the branch at [pc]. *)

val decode : int64 array -> (Ir.program * (int * int) list, string) result
(** Returns the program plus the (branch pc, hint) pairs found. *)

val code_size_bytes : Ir.program -> int
(** Static code size under this encoding (8 bytes per instruction). *)
