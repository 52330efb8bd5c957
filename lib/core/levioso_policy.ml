module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Depmatrix = Levioso_secure.Depmatrix

(* Root rule: a decoding row starts as the active-branch set (the root
   set).  Clear event: a resolving branch clears its column, so rows name
   only unresolved branches: no union-time pruning is needed, the issue
   check is an empty-row test, and a branch's bit is gone before its slot
   is reused. *)

let maker ?annotation ?(track_data = true) () (config : Config.t) program pipe =
  let hints = match annotation with Some a -> a | None -> Annotation.analyze program in
  let mask = Pipeline.arena_size pipe - 1 in
  let dm = Depmatrix.create pipe ~budget:config.Config.depset_budget in
  let transmitter = Array.make (mask + 1) false in
  (* An active branch deactivates when fetch reaches its reconvergence
     pc ([reconv], -1 for none); [pending.(pc)] counts the active
     branches reconverging at [pc], so decode scans the active set only
     when one of them does. *)
  let reconv = Array.make (mask + 1) (-1) in
  let pending = Array.make (Array.length program) 0 in
  let reconv_pc =
    Array.init (Array.length program) (fun pc ->
        match Annotation.hint_for hints pc with
        | Some (Annotation.Reconverges_at r) when r >= 0 && r < Array.length program -> r
        | Some (Annotation.Reconverges_at _ | Annotation.No_reconvergence) | None -> -1)
  in
  (* one past the youngest decoded seq: the extent of a squash *)
  let decoded = ref 0 in
  let deactivate seq =
    if Depmatrix.is_root dm ~seq then begin
      Depmatrix.remove_root dm ~seq;
      let r = reconv.(seq land mask) in
      if r >= 0 then pending.(r) <- pending.(r) - 1
    end
  in
  let on_decode ~seq =
    let pc = Pipeline.pc_of pipe seq in
    let slot = seq land mask in
    decoded := seq + 1;
    (* Fetch reached this pc: the active instances reconverging here
       deactivate, before this instruction's row is built. *)
    if pending.(pc) > 0 then
      for i = 0 to Pipeline.unresolved_branch_count pipe - 1 do
        let b = Pipeline.unresolved_branch pipe i in
        if reconv.(b land mask) = pc then deactivate b
      done;
    Depmatrix.decode dm ~seq ~roots:true ~data:track_data ~after:(-1) ~own:false;
    let instr = Pipeline.instr_of pipe seq in
    transmitter.(slot) <- Pipeline.is_transmitter instr;
    if Ir.is_branch instr then begin
      let r = reconv_pc.(pc) in
      reconv.(slot) <- r;
      if r >= 0 then pending.(r) <- pending.(r) + 1;
      Depmatrix.add_root dm ~seq
    end
  in
  (* A row names only older unresolved branches, so a non-empty row means
     "wait"; an overflowed row waits for all older branches. *)
  let may_execute ~seq =
    (not transmitter.(seq land mask))
    ||
    if Depmatrix.overflowed dm ~seq then
      not (Pipeline.exists_older_unresolved_branch pipe ~seq)
    else Depmatrix.is_empty dm ~seq
  in
  let on_resolve ~seq =
    deactivate seq;
    Depmatrix.clear_column dm ~seq
  in
  (* Squashed instructions' rows are rewritten when their slots are
     reused, and no surviving row names a squashed (younger) branch; only
     the active set needs trimming. *)
  let on_squash ~boundary =
    for s = boundary + 1 to !decoded - 1 do
      deactivate s
    done;
    decoded := boundary + 1
  in
  (* Provenance: the branch instances in the dependency set. *)
  let explain ~seq =
    if Depmatrix.overflowed dm ~seq then Levioso_telemetry.Audit.Overflow
    else Levioso_secure.Baselines.explain_branches ~keep:(Depmatrix.mem dm ~seq) pipe ~seq
  in
  {
    Pipeline.always_execute_policy with
    policy_name = (if track_data then "levioso" else "levioso-ctrl");
    on_decode;
    on_resolve;
    on_squash;
    may_execute;
    explain;
    recheck = Pipeline.On_resolve;
  }
