module Cfg = Levioso_ir.Cfg

module Int_set = Set.Make (Int)

type t = { cfg : Cfg.t; block_deps : Int_set.t array }

let compute cfg =
  let pd = Postdom.compute cfg in
  let n = Cfg.num_blocks cfg in
  let block_deps = Array.make n Int_set.empty in
  List.iter
    (fun branch_pc ->
      let bb = Cfg.block_of_pc cfg branch_pc in
      let succs = (Cfg.block cfg bb).Cfg.succs in
      for candidate = 0 to n - 1 do
        (* Ferrante–Ottenstein–Warren: candidate is control-dependent on the
           branch iff it post-dominates some successor but does not
           *strictly* post-dominate the branch block itself.  The non-strict
           form would hide a loop header's dependence on its own branch. *)
        let strictly_postdominates a b = a <> b && Postdom.postdominates pd a b in
        let depends =
          (not (strictly_postdominates candidate bb))
          && List.exists (fun s -> Postdom.postdominates pd candidate s) succs
        in
        if depends then
          block_deps.(candidate) <- Int_set.add branch_pc block_deps.(candidate)
      done)
    (Cfg.branch_pcs cfg);
  { cfg; block_deps }

let of_pc t pc = t.block_deps.(Cfg.block_of_pc t.cfg pc)

let region_size t branch_pc =
  let count = ref 0 in
  Array.iteri
    (fun b deps ->
      if Int_set.mem branch_pc deps then begin
        let blk = Cfg.block t.cfg b in
        count := !count + (blk.Cfg.last - blk.Cfg.first + 1)
      end)
    t.block_deps;
  !count
