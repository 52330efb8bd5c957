module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Audit = Levioso_telemetry.Audit

(* A value's taint is its {!Depmatrix} row.  Root rule: a speculative
   load names itself.  Clear event: a committing root clears its column.
   Decode prunes bound roots (the hardware untaint broadcast), which
   keeps loop-carried chains from saturating the budget. *)

let maker (config : Config.t) _program pipe =
  let budget = config.Config.depset_budget in
  let mask = Pipeline.arena_size pipe - 1 in
  let dm = Depmatrix.create pipe ~budget in
  let gated = Array.make (mask + 1) false in
  (* roots older than the oldest unresolved branch (all, with none) are
     bound *)
  let oldest_branch ~seq =
    if Pipeline.unresolved_branch_count pipe = 0 then seq
    else Pipeline.unresolved_branch pipe 0
  in
  let on_decode ~seq =
    let slot = seq land mask in
    let instr = Pipeline.instr_of pipe seq in
    gated.(slot) <- Pipeline.is_transmitter instr || Ir.is_branch instr;
    let own =
      match instr with
      | Ir.Load _ -> Pipeline.exists_older_unresolved_branch pipe ~seq
      | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
      | Ir.Rdcycle _ | Ir.Halt ->
        false
    in
    Depmatrix.decode dm ~seq ~roots:false ~data:true ~after:(oldest_branch ~seq) ~own
  in
  (* Transmitters and branches wait on tainted operands.  Bound is monotone
     and roots commit in order, so the operands carry an unbound root exactly
     when their youngest root is unbound, and an overflowed producer counts
     exactly while the youngest is in flight; either implies an older
     unresolved branch. *)
  let may_execute ~seq =
    (not gated.(seq land mask))
    ||
    let head = Pipeline.oldest_seq pipe in
    if Depmatrix.producer_overflow dm ~seq >= head then
      not (Pipeline.exists_older_unresolved_branch pipe ~seq)
    else
      let r = Depmatrix.producer_bound dm ~seq in
      r < head
      || Pipeline.unresolved_branch_count pipe = 0
      || r < Pipeline.unresolved_branch pipe 0
  in
  let on_commit ~seq = if Depmatrix.mem dm ~seq seq then Depmatrix.clear_column dm ~seq in
  (* Provenance: the unbound roots feeding the operands, oldest first,
     read from the in-flight producers' rows. *)
  let explain ~seq =
    let head = Pipeline.oldest_seq pipe in
    if Depmatrix.producer_overflow dm ~seq >= head then Audit.Overflow
    else
      let producers = List.filter (fun p -> p >= head) (Pipeline.producers_of pipe seq) in
      let after = oldest_branch ~seq in
      let roots =
        List.filter
          (fun s -> List.exists (fun p -> Depmatrix.mem dm ~seq:p s) producers)
          (List.init (Int.max 0 (seq - after - 1)) (fun i -> after + 1 + i))
      in
      if List.length roots > budget then Audit.Overflow
      else Audit.Taint (List.map (fun s -> (s, Pipeline.pc_of pipe s)) roots)
  in
  {
    Pipeline.always_execute_policy with
    policy_name = "stt";
    on_decode;
    on_commit;
    may_execute;
    explain;
  }
