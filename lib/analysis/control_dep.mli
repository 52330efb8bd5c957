(** Control dependence (Ferrante–Ottenstein–Warren).

    A block [B] is control-dependent on branch [b] when one successor path
    of [b] always reaches [B] while the other may avoid it — equivalently,
    [B] post-dominates a successor of [b] but not [b] itself.  Instructions
    inherit the control dependences of their block. *)

module Int_set : Set.S with type elt = int

type t

val compute : Levioso_ir.Cfg.t -> t

val of_pc : t -> int -> Int_set.t
(** Branch pcs controlling the instruction at a pc. *)

val region_size : t -> int -> int
(** [region_size t branch_pc]: number of static instructions
    control-dependent on the branch at [branch_pc]. *)
