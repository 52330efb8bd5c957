module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline

let maker _config _program pipe =
  let producer_quarantined p =
    Pipeline.in_flight pipe p
    &&
    match Pipeline.instr_of pipe p with
    | Ir.Load _ -> Pipeline.exists_older_unresolved_branch pipe ~seq:p
    | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      false
  in
  let may_execute ~seq =
    let quarantined = ref false in
    for i = 0 to Pipeline.max_operands - 1 do
      if not !quarantined then
        let p = Pipeline.operand_producer pipe seq i in
        quarantined := p >= 0 && producer_quarantined p
    done;
    not !quarantined
  in
  (* Provenance: the still-quarantined producer loads feeding the operands. *)
  let explain ~seq =
    Levioso_telemetry.Audit.Taint
      (List.filter_map
         (fun p ->
           if producer_quarantined p then Some (p, Pipeline.pc_of pipe p)
           else None)
         (Pipeline.producers_of pipe seq))
  in
  {
    Pipeline.always_execute_policy with
    policy_name = "nda";
    may_execute;
    explain;
  }
