module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Slot_mask = Levioso_uarch.Slot_mask

(* Dependency sets as the hardware holds them: one mask per in-flight
   instruction over ROB slots, where a set bit names the unresolved
   branch instance occupying that slot, plus an overflow flag per slot
   (the "depend on all older branches" state after a budget blowout).

   A resolving branch clears its column in every younger row — the tag
   broadcast that retires a dependency-matrix column — so a row only
   ever names unresolved branches.  That makes union-time pruning free
   (nothing resolved is left to prune, which is what keeps loop-carried
   chains from accumulating every past loop-branch instance), the issue
   check a test for the empty row, and slot reuse safe: a branch's bit
   is gone before its slot can hold another instruction. *)

let maker ?annotation ?(track_data = true) () (config : Config.t) program pipe =
  let annotation =
    match annotation with
    | Some a -> a
    | None -> Annotation.analyze program
  in
  let budget = config.Config.depset_budget in
  let slots = Pipeline.arena_size pipe in
  let mask = slots - 1 in
  (* rows 0..slots-1: per-slot dependency sets; row [slots]: the active
     branch set *)
  let deps = Slot_mask.create ~rows:(slots + 1) ~bits:slots in
  let active = slots in
  let overflow = Array.make slots false in
  let transmitter = Array.make slots false in
  (* Active-branch bookkeeping (front end).  An active branch deactivates
     when fetch reaches its reconvergence pc ([reconv], -1 for none);
     [pending.(pc)] counts the active branches reconverging at [pc], so
     decode scans the active set only when one of them does. *)
  let reconv = Array.make slots (-1) in
  let pending = Array.make (Array.length program) 0 in
  (* one past the youngest decoded seq: the extent of a squash *)
  let decoded = ref 0 in
  let deactivate slot =
    Slot_mask.remove deps active slot;
    let r = reconv.(slot) in
    if r >= 0 then pending.(r) <- pending.(r) - 1
  in
  let on_decode ~seq =
    let pc = Pipeline.pc_of pipe seq in
    let slot = seq land mask in
    decoded := seq + 1;
    (* Fetch reached this pc: every active instance whose reconvergence pc
       this is deactivates — the instruction itself is already
       reconverged with respect to those branches. *)
    if pending.(pc) > 0 then
      for i = 0 to Pipeline.unresolved_branch_count pipe - 1 do
        let b = Pipeline.unresolved_branch pipe i land mask in
        if reconv.(b) = pc && Slot_mask.mem deps active b then deactivate b
      done;
    Slot_mask.copy deps ~dst:slot ~src:active;
    let ovf = ref false in
    (* producers captured at rename are still in flight at decode *)
    if track_data then
      for i = 0 to Pipeline.producer_count pipe seq - 1 do
        let ps = Pipeline.producer pipe seq i land mask in
        if overflow.(ps) then ovf := true
        else Slot_mask.union deps ~dst:slot ~src:ps
      done;
    if !ovf || Slot_mask.cardinal deps slot > budget then begin
      overflow.(slot) <- true;
      Slot_mask.clear deps slot
    end
    else overflow.(slot) <- false;
    let instr = Pipeline.instr_of pipe seq in
    transmitter.(slot) <- Pipeline.is_transmitter instr;
    match instr with
    | Ir.Branch _ ->
      let r =
        match Annotation.hint_for annotation pc with
        | Some (Annotation.Reconverges_at r) when r >= 0 && r < Array.length pending
          ->
          r
        | Some (Annotation.Reconverges_at _ | Annotation.No_reconvergence) | None
          ->
          -1
      in
      reconv.(slot) <- r;
      if r >= 0 then pending.(r) <- pending.(r) + 1;
      Slot_mask.add deps active slot
    | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      ()
  in
  (* Every branch bit in a row is unresolved and older than the row's
     instruction, so a non-empty row means "wait"; an overflowed row
     waits for all older branches. *)
  let may_execute ~seq =
    let slot = seq land mask in
    (not transmitter.(slot))
    ||
    if overflow.(slot) then not (Pipeline.exists_older_unresolved_branch pipe ~seq)
    else Slot_mask.is_empty deps slot
  in
  let on_resolve ~seq =
    let slot = seq land mask in
    if Slot_mask.mem deps active slot then deactivate slot;
    (* column clear: only younger instructions can depend on the branch *)
    for s = seq + 1 to Pipeline.next_seq pipe - 1 do
      Slot_mask.remove deps (s land mask) slot
    done
  in
  (* Squashed instructions' rows are rewritten when their slots are
     reused, and no surviving row names a squashed (younger) branch; only
     the active set needs trimming. *)
  let on_squash ~boundary =
    for s = boundary + 1 to !decoded - 1 do
      let slot = s land mask in
      if Slot_mask.mem deps active slot then deactivate slot
    done;
    decoded := boundary + 1
  in
  (* Provenance: the unresolved dynamic branch instances in the
     dependency set, oldest first, or the overflow marker after a budget
     blowout. *)
  let explain ~seq =
    let slot = seq land mask in
    if overflow.(slot) then Levioso_telemetry.Audit.Overflow
    else
      Levioso_telemetry.Audit.Branch_dep
        (List.filter_map
           (fun b ->
             if Slot_mask.mem deps slot (b land mask) then
               Some (b, Pipeline.pc_of pipe b)
             else None)
           (Pipeline.older_unresolved_branches pipe ~seq))
  in
  {
    Pipeline.policy_name = (if track_data then "levioso" else "levioso-ctrl");
    on_decode;
    on_resolve;
    on_squash;
    on_commit = (fun ~seq:_ -> ());
    may_execute;
    load_visibility = (fun ~seq:_ -> Pipeline.Normal);
    explain;
  }
