(* Reference policies for differential testing: the list-based Levioso
   and STT dependency trackers the library used before its bitmask
   representation.  Each keeps sorted seq lists in a Hashtbl and
   recomputes unions on every decode and issue check; [Test_differential]
   runs them side by side with the library makers and requires identical
   results. *)

module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Annotation = Levioso_core.Annotation

module Levioso = struct

  (* Dependency set of one in-flight instruction: the dynamic branch
     instances (sequence numbers) it depends on, or [All] after a budget
     overflow. *)
  type depset =
    | Deps of int list
    | All

  (* Union with pruning: branch instances that have already resolved no
     longer constrain anything, and dropping them here is what keeps
     dependency sets from growing along loop-carried chains (an induction
     variable would otherwise accumulate every past loop-branch instance and
     overflow the budget).  In hardware this is the tag-broadcast that clears
     dependency-matrix columns when a branch resolves. *)
  let union ~still_unresolved budget a b =
    match (a, b) with
    | All, _ | _, All -> All
    | Deps xs, Deps ys ->
      let merged =
        List.sort_uniq compare
          (List.filter still_unresolved (List.rev_append xs ys))
      in
      if List.length merged > budget then All else Deps merged

  let maker ?annotation ?(track_data = true) () (config : Config.t) program pipe =
    let annotation =
      match annotation with
      | Some a -> a
      | None -> Annotation.analyze program
    in
    let budget = config.Config.depset_budget in
    (* Active unresolved branch instances, oldest first:
       (seq, reconvergence pc option). *)
    let active : (int * int option) list ref = ref [] in
    let depsets : (int, depset) Hashtbl.t = Hashtbl.create 256 in
    let depset_of seq =
      Option.value ~default:(Deps []) (Hashtbl.find_opt depsets seq)
    in
    let still_unresolved s = Pipeline.is_unresolved_branch pipe s in
    let on_decode ~seq =
      let pc = Pipeline.pc_of pipe seq in
      (* Fetch reached this pc: every active instance whose reconvergence pc
         this is deactivates — the instruction itself is already
         reconverged with respect to those branches. *)
      active :=
        List.filter
          (fun (s, reconv) -> reconv <> Some pc && still_unresolved s)
          !active;
      let control = Deps (List.map fst !active) in
      let data =
        if track_data then
          List.fold_left
            (fun acc p -> union ~still_unresolved budget acc (depset_of p))
            (Deps []) (Pipeline.producers_of pipe seq)
        else Deps []
      in
      Hashtbl.replace depsets seq (union ~still_unresolved budget control data);
      match Pipeline.instr_of pipe seq with
      | Ir.Branch _ ->
        let reconv =
          match Annotation.hint_for annotation pc with
          | Some (Annotation.Reconverges_at r) -> Some r
          | Some Annotation.No_reconvergence | None -> None
        in
        active := !active @ [ (seq, reconv) ]
      | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Jump _ | Ir.Flush _
      | Ir.Rdcycle _ | Ir.Halt ->
        ()
    in
    let may_execute ~seq =
      if not (Pipeline.is_transmitter (Pipeline.instr_of pipe seq)) then true
      else
        match depset_of seq with
        | Deps branches ->
          List.for_all
            (fun s -> not (Pipeline.is_unresolved_branch pipe s))
            branches
        | All -> not (Pipeline.exists_older_unresolved_branch pipe ~seq)
    in
    let on_resolve ~seq = active := List.filter (fun (s, _) -> s <> seq) !active in
    let on_squash ~boundary =
      active := List.filter (fun (s, _) -> s <= boundary) !active;
      Hashtbl.filter_map_inplace
        (fun seq d -> if seq > boundary then None else Some d)
        depsets
    in
    let on_commit ~seq = Hashtbl.remove depsets seq in
    (* Provenance: the still-unresolved dynamic branch instances in the
       dependency set, or the overflow marker after a budget blowout. *)
    let explain ~seq =
      match depset_of seq with
      | All -> Levioso_telemetry.Audit.Overflow
      | Deps branches ->
        Levioso_telemetry.Audit.Branch_dep
          (List.filter_map
             (fun s ->
               if Pipeline.is_unresolved_branch pipe s then
                 Some (s, Pipeline.pc_of pipe s)
               else None)
             branches)
    in
    {
      Pipeline.policy_name = (if track_data then "levioso" else "levioso-ctrl");
      on_decode;
      on_resolve;
      on_squash;
      on_commit;
      may_execute;
      load_visibility = (fun ~seq:_ -> Pipeline.Normal);
      explain;
    }
end

module Stt = struct

  (* Taint of a value: the set of root load sequence numbers it (transitively)
     derives from, or [Conservative] when the hardware tracking budget
     overflowed.  Roots whose loads are already bound (no older unresolved
     branch) are pruned on propagation — the hardware untaint broadcast —
     which keeps loop-carried chains from saturating the budget. *)
  type taint =
    | Roots of int list
    | Conservative

  let maker (config : Config.t) _program pipe =
    let budget = config.Config.depset_budget in
    let taints : (int, taint) Hashtbl.t = Hashtbl.create 256 in
    let root_bound root_seq =
      (* A committed load is trivially bound; an in-flight one is bound when
         no older branch is still unresolved (its visibility point passed). *)
      root_seq < Pipeline.oldest_seq pipe
      || not (Pipeline.exists_older_unresolved_branch pipe ~seq:root_seq)
    in
    let union a b =
      match (a, b) with
      | Conservative, _ | _, Conservative -> Conservative
      | Roots xs, Roots ys ->
        let merged =
          List.sort_uniq compare
            (List.filter
               (fun root -> not (root_bound root))
               (List.rev_append xs ys))
        in
        if List.length merged > budget then Conservative else Roots merged
    in
    let taint_of seq =
      Option.value ~default:(Roots []) (Hashtbl.find_opt taints seq)
    in
    (* Taint feeding an instruction's operands (excluding its own root). *)
    let operand_taint seq =
      List.fold_left
        (fun acc p -> union acc (taint_of p))
        (Roots [])
        (Pipeline.producers_of pipe seq)
    in
    let on_decode ~seq =
      let base = operand_taint seq in
      let full =
        match Pipeline.instr_of pipe seq with
        | Ir.Load _ -> union base (Roots [ seq ])
        | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
        | Ir.Rdcycle _ | Ir.Halt ->
          base
      in
      Hashtbl.replace taints seq full
    in
    (* STT gates two kinds of instructions on tainted operands: explicit
       transmitters (loads/flushes — the cache channel) and branches (the
       implicit channel: resolving a branch on speculative data changes the
       squash pattern, which is observable).  Everything else propagates
       taint freely. *)
    let gated instr =
      Pipeline.is_transmitter instr
      ||
      match instr with
      | Ir.Branch _ -> true
      | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Jump _ | Ir.Flush _
      | Ir.Rdcycle _ | Ir.Halt ->
        false
    in
    let may_execute ~seq =
      if not (gated (Pipeline.instr_of pipe seq)) then true
      else
        match operand_taint seq with
        | Roots roots -> List.for_all root_bound roots
        | Conservative -> not (Pipeline.exists_older_unresolved_branch pipe ~seq)
    in
    let on_squash ~boundary =
      Hashtbl.filter_map_inplace
        (fun seq t -> if seq > boundary then None else Some t)
        taints
    in
    let on_commit ~seq = Hashtbl.remove taints seq in
    let explain ~seq =
      match operand_taint seq with
      | Conservative -> Levioso_telemetry.Audit.Overflow
      | Roots roots ->
        Levioso_telemetry.Audit.Taint
          (List.filter_map
             (fun root ->
               if root_bound root then None
               else if Pipeline.in_flight pipe root then
                 Some (root, Pipeline.pc_of pipe root)
               else Some (root, -1))
             roots)
    in
    {
      Pipeline.policy_name = "stt";
      on_decode;
      on_resolve = (fun ~seq:_ -> ());
      on_squash;
      on_commit;
      may_execute;
      load_visibility = (fun ~seq:_ -> Pipeline.Normal);
      explain;
    }
end
