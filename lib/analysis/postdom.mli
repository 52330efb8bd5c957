(** Post-dominators of a CFG.

    Computed as dominators of the reverse graph rooted at a virtual exit
    node that collects every [Halt] block.  Blocks that cannot reach any
    exit (e.g. bodies of provably infinite loops) are unreachable in the
    reverse graph and have no post-dominator — clients must treat them
    conservatively. *)

type t

val compute : Levioso_ir.Cfg.t -> t

val ipostdom : t -> int -> int option
(** Immediate post-dominator of a block; [None] when the block's only
    post-dominator is the virtual exit (or it cannot reach an exit). *)

val postdominates : t -> int -> int -> bool
(** [postdominates t a b]: every path from [b] to program exit passes
    through [a] (reflexive). *)
