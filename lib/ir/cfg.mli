(** Control-flow graph over basic blocks of a program.

    Block 0 is the entry block (pc 0).  A block's [last] instruction is
    either a control transfer or the instruction just before the next
    leader.  Successor order is significant for branches: the fall-through
    successor comes first, then the taken target. *)

type block = {
  id : int;
  first : int;  (** pc of the first instruction *)
  last : int;  (** pc of the last instruction (inclusive) *)
  succs : int list;  (** successor block ids *)
  preds : int list;  (** predecessor block ids *)
}

type t

val build : Ir.program -> t

val program : t -> Ir.program

val blocks : t -> block array

val num_blocks : t -> int

val block : t -> int -> block

val block_of_pc : t -> int -> int
(** Which block contains a given pc. *)

val entry : t -> int
(** Always 0. *)

val exit_blocks : t -> int list
(** Blocks whose last instruction is [Halt]. *)

val branch_pcs : t -> int list
(** pcs of all conditional branches, ascending. *)

val instr_pcs : block -> int list
(** The pcs contained in a block, ascending. *)

