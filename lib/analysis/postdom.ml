module Cfg = Levioso_ir.Cfg

type t = { dom : Domtree.t; exit_node : int }

let compute cfg =
  let n = Cfg.num_blocks cfg in
  let exit_node = n in
  let exits = Cfg.exit_blocks cfg in
  (* Reverse graph: successors are CFG predecessors; the virtual exit's
     successors are the Halt blocks, and it is the entry of the reverse
     graph. *)
  let succs id =
    if id = exit_node then exits else (Cfg.block cfg id).Cfg.preds
  in
  let preds id =
    if id = exit_node then []
    else
      let real = (Cfg.block cfg id).Cfg.succs in
      if List.mem id exits then exit_node :: real else real
  in
  let dom = Domtree.compute ~num_nodes:(n + 1) ~entry:exit_node ~succs ~preds in
  { dom; exit_node }

let ipostdom t b =
  match Domtree.idom t.dom b with
  | Some d when d <> t.exit_node -> Some d
  | Some _ | None -> None

let postdominates t a b = Domtree.dominates t.dom a b
