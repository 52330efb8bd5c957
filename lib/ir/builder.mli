(** An assembler / program-construction DSL.

    Programs are emitted sequentially into a mutable buffer; control-flow
    targets are symbolic labels resolved by {!build}.  Structured helpers
    ({!if_then}, {!if_then_else}, {!while_}, {!for_down}) emit the usual
    compare-and-branch skeletons so workloads and attack gadgets read like
    pseudo-code. *)

type t

val create : unit -> t

val fresh_reg : t -> Ir.reg
(** Allocate a scratch register (bump allocator starting at r1).
    @raise Failure when the register file is exhausted. *)

val fresh_label : t -> string
(** A new unique label name (not yet placed). *)

val place : t -> string -> unit
(** Bind a label to the current position.  A label may be placed once. *)

(** {1 Raw emission} *)

val alu : t -> Ir.alu_op -> Ir.reg -> Ir.operand -> Ir.operand -> unit
val add : t -> Ir.reg -> Ir.operand -> Ir.operand -> unit
val sub : t -> Ir.reg -> Ir.operand -> Ir.operand -> unit
val mul : t -> Ir.reg -> Ir.operand -> Ir.operand -> unit
val mov : t -> Ir.reg -> Ir.operand -> unit
val load : t -> Ir.reg -> Ir.operand -> Ir.operand -> unit
val store : t -> Ir.operand -> Ir.operand -> Ir.operand -> unit
val branch : t -> Ir.cmp -> Ir.operand -> Ir.operand -> string -> unit
val jump : t -> string -> unit
val flush : t -> Ir.operand -> Ir.operand -> unit
val rdcycle : ?after:Ir.operand -> t -> Ir.reg -> unit

val halt : t -> unit

(** {1 Structured control flow} *)

val negate_cmp : Ir.cmp -> Ir.cmp
(** Logical negation, e.g. [negate_cmp Lt = Ge]. *)

val if_then :
  t -> cond:Ir.cmp * Ir.operand * Ir.operand -> (unit -> unit) -> unit
(** [if_then t ~cond body] runs [body] iff [cond] holds. *)

val if_then_else :
  t ->
  cond:Ir.cmp * Ir.operand * Ir.operand ->
  (unit -> unit) ->
  (unit -> unit) ->
  unit

val while_ :
  t -> cond:(unit -> Ir.cmp * Ir.operand * Ir.operand) -> (unit -> unit) -> unit
(** [while_ t ~cond body]: [cond] is re-emitted at the loop head each
    iteration (it may emit set-up instructions of its own before returning
    the comparison triple). *)

val for_down : t -> counter:Ir.reg -> from:Ir.operand -> (unit -> unit) -> unit
(** [for_down t ~counter ~from body] runs [body] with [counter] taking
    values [from-1, from-2, ..., 0]. *)

val build : t -> Ir.program
(** Resolve labels and return the program.  Appends a trailing [Halt] when
    the last instruction could fall through.
    @raise Failure on unplaced labels referenced by emitted instructions,
    or if {!Ir.validate} rejects the result. *)
