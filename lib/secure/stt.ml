module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Slot_mask = Levioso_uarch.Slot_mask

(* Taint of a value: a mask over ROB slots naming the in-flight root
   loads it (transitively) derives from, or the [conservative] flag when
   the hardware tracking budget overflowed.  A root is {e bound} once no
   older branch is unresolved (its visibility point passed); bound roots
   are pruned on propagation — the hardware untaint broadcast — which
   keeps loop-carried chains from saturating the budget.  A committing
   root clears its column in every younger row, so a set bit always
   names an in-flight load and slot reuse cannot alias an old root. *)

let maker (config : Config.t) _program pipe =
  let budget = config.Config.depset_budget in
  let slots = Pipeline.arena_size pipe in
  let mask = slots - 1 in
  (* rows 0..slots-1: per-slot taint; row [slots]: the operand union
     that explain builds *)
  let taint = Slot_mask.create ~rows:(slots + 1) ~bits:slots in
  let union_row = slots in
  let conservative = Array.make slots false in
  (* youngest root in the row, -1 when empty *)
  let root_max = Array.make slots (-1) in
  (* Operand summaries captured at decode, so the issue check never
     re-unions producer taints: the youngest root over the producers'
     rows, and the youngest conservative producer (-1 for none).  Bound
     is monotone and roots commit in order, so the operands carry an
     unbound root exactly when that youngest root is still unbound, and
     a conservative producer still counts exactly while the youngest one
     is in flight (a committed producer contributes nothing). *)
  let operand_root_max = Array.make slots (-1) in
  let operand_conservative = Array.make slots (-1) in
  let gated = Array.make slots false in
  (* Keep only the roots of [row] that are unbound with respect to the
     oldest unresolved branch: those younger than it, older than [seq]. *)
  let prune_bound row ~seq =
    let n = Pipeline.unresolved_branch_count pipe in
    let u0 = if n = 0 then seq else Pipeline.unresolved_branch pipe 0 in
    if u0 >= seq then Slot_mask.clear taint row
    else Slot_mask.inter_range taint row ~lo:((u0 + 1) land mask) ~len:(seq - u0 - 1)
  in
  let on_decode ~seq =
    let slot = seq land mask in
    Slot_mask.clear taint slot;
    let rmax = ref (-1) and cons = ref (-1) in
    (* producers captured at rename are still in flight at decode *)
    for i = 0 to Pipeline.producer_count pipe seq - 1 do
      let p = Pipeline.producer pipe seq i in
      let ps = p land mask in
      if conservative.(ps) then cons := Int.max !cons p
      else begin
        Slot_mask.union taint ~dst:slot ~src:ps;
        rmax := Int.max !rmax root_max.(ps)
      end
    done;
    operand_root_max.(slot) <- !rmax;
    operand_conservative.(slot) <- !cons;
    prune_bound slot ~seq;
    let instr = Pipeline.instr_of pipe seq in
    gated.(slot) <-
      Pipeline.is_transmitter instr
      ||
      (match instr with
      | Ir.Branch _ -> true
      | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Jump _ | Ir.Flush _
      | Ir.Rdcycle _ | Ir.Halt ->
        false);
    let speculative = Pipeline.exists_older_unresolved_branch pipe ~seq in
    (* the operand roots that survived pruning, youngest first *)
    let kept =
      if speculative && !rmax > Pipeline.unresolved_branch pipe 0 then !rmax else -1
    in
    (* every load is a root of its own value; it survives pruning only
       while speculative *)
    let own =
      match instr with
      | Ir.Load _ -> speculative
      | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
      | Ir.Rdcycle _ | Ir.Halt ->
        false
    in
    if own then Slot_mask.add taint slot slot;
    if !cons >= 0 || Slot_mask.cardinal taint slot > budget then begin
      conservative.(slot) <- true;
      root_max.(slot) <- -1;
      Slot_mask.clear taint slot
    end
    else begin
      conservative.(slot) <- false;
      root_max.(slot) <- (if own then seq else kept)
    end
  in
  (* STT gates two kinds of instructions on tainted operands: explicit
     transmitters (loads/flushes — the cache channel) and branches (the
     implicit channel: resolving a branch on speculative data changes the
     squash pattern, which is observable).  Everything else propagates
     taint freely.  An unbound operand root implies an older unresolved
     branch, so overflow and plain taint both mean "wait" then. *)
  let may_execute ~seq =
    let slot = seq land mask in
    (not gated.(slot))
    ||
    let head = Pipeline.oldest_seq pipe in
    if operand_conservative.(slot) >= head then
      not (Pipeline.exists_older_unresolved_branch pipe ~seq)
    else
      let r = operand_root_max.(slot) in
      r < head
      || Pipeline.unresolved_branch_count pipe = 0
      || r < Pipeline.unresolved_branch pipe 0
  in
  let on_commit ~seq =
    let slot = seq land mask in
    if Slot_mask.mem taint slot slot then
      for s = seq + 1 to Pipeline.next_seq pipe - 1 do
        Slot_mask.remove taint (s land mask) slot
      done
  in
  (* Provenance: the unbound roots feeding the operands, oldest first,
     recomputed from the in-flight producers' rows. *)
  let explain ~seq =
    let slot = seq land mask in
    let head = Pipeline.oldest_seq pipe in
    if operand_conservative.(slot) >= head then Levioso_telemetry.Audit.Overflow
    else begin
      Slot_mask.clear taint union_row;
      for i = 0 to Pipeline.producer_count pipe seq - 1 do
        let p = Pipeline.producer pipe seq i in
        if p >= head then Slot_mask.union taint ~dst:union_row ~src:(p land mask)
      done;
      prune_bound union_row ~seq;
      if Slot_mask.cardinal taint union_row > budget then
        Levioso_telemetry.Audit.Overflow
      else
        let rec roots s acc =
          if s < head then acc
          else
            roots (s - 1)
              (if Slot_mask.mem taint union_row (s land mask) then
                 (s, Pipeline.pc_of pipe s) :: acc
               else acc)
        in
        Levioso_telemetry.Audit.Taint (roots (seq - 1) [])
    end
  in
  {
    Pipeline.policy_name = "stt";
    on_decode;
    on_resolve = (fun ~seq:_ -> ());
    on_squash = (fun ~boundary:_ -> ());
    on_commit;
    may_execute;
    load_visibility = (fun ~seq:_ -> Pipeline.Normal);
    explain;
  }
