module Ir = Levioso_ir.Ir
module Cfg = Levioso_ir.Cfg
module Branch_dep = Levioso_analysis.Branch_dep
module Int_set = Levioso_analysis.Branch_dep.Int_set
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config

let maker (config : Config.t) program pipe =
  (* the "compiler output": per-pc static dependency sets, with the same
     hardware budget discipline as the dynamic scheme *)
  let bd = Branch_dep.compute (Cfg.build program) in
  let budget = config.Config.depset_budget in
  let deps =
    Array.init (Array.length program) (fun pc ->
        let s = Branch_dep.deps_of_pc bd pc in
        if Int_set.cardinal s > budget then None (* overflow: depend on all *)
        else Some s)
  in
  let may_execute ~seq =
    if not (Pipeline.is_transmitter (Pipeline.instr_of pipe seq)) then true
    else
      match deps.(Pipeline.pc_of pipe seq) with
      | None -> not (Pipeline.exists_older_unresolved_branch pipe ~seq)
      | Some set ->
        (* the older unresolved branches are a prefix of the queue *)
        let n = Pipeline.unresolved_branch_count pipe in
        let i = ref 0 and dependent = ref false in
        while (not !dependent) && !i < n && Pipeline.unresolved_branch pipe !i < seq do
          dependent := Int_set.mem (Pipeline.pc_of pipe (Pipeline.unresolved_branch pipe !i)) set;
          incr i
        done;
        not !dependent
  in
  (* Provenance: the older unresolved branches whose static pc is in the
     instruction's dependency set (all of them after an overflow). *)
  let explain ~seq =
    match deps.(Pipeline.pc_of pipe seq) with
    | None -> Levioso_telemetry.Audit.Overflow
    | Some set ->
      Levioso_telemetry.Audit.Branch_dep
        (List.filter_map
           (fun b ->
             let bpc = Pipeline.pc_of pipe b in
             if Int_set.mem bpc set then Some (b, bpc) else None)
           (Pipeline.older_unresolved_branches pipe ~seq))
  in
  {
    Pipeline.always_execute_policy with
    policy_name = "levioso-static";
    may_execute;
    explain;
  }
