module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Cache = Levioso_uarch.Cache

let maker _config _program pipe =
  let speculative seq = Pipeline.exists_older_unresolved_branch pipe ~seq in
  let l1 = Cache.Hierarchy.l1 (Pipeline.hierarchy pipe) in
  let hits_l1 seq =
    let addr = Pipeline.load_address pipe seq in
    addr >= 0 && Cache.probe l1 addr
  in
  let may_execute ~seq =
    match Pipeline.instr_of pipe seq with
    | Ir.Load _ -> (not (speculative seq)) || hits_l1 seq
    | Ir.Flush _ -> not (speculative seq)
    | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Rdcycle _ | Ir.Halt ->
      true
  in
  (* Speculative hits are served without touching cache state, so a squash
     erases every trace of them; once bound, accesses behave normally. *)
  let load_visibility ~seq =
    if speculative seq then Pipeline.Invisible else Pipeline.Normal
  in
  (* A refused access is a speculative L1 miss; the speculation it hides
     behind is the set of older unresolved branches. *)
  let explain ~seq =
    Levioso_telemetry.Audit.Branch_dep
      (List.map
         (fun s -> (s, Pipeline.pc_of pipe s))
         (Pipeline.older_unresolved_branches pipe ~seq))
  in
  {
    Pipeline.always_execute_policy with
    policy_name = "dom";
    may_execute;
    load_visibility;
    explain;
  }
