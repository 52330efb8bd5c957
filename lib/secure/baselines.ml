module Pipeline = Levioso_uarch.Pipeline
module Audit = Levioso_telemetry.Audit

let explain_branches ?(keep = fun _ -> true) pipe ~seq =
  Audit.Branch_dep
    (List.filter_map
       (fun s -> if keep s then Some (s, Pipeline.pc_of pipe s) else None)
       (Pipeline.older_unresolved_branches pipe ~seq))

let unsafe _config _program _pipe =
  {
    Pipeline.always_execute_policy with
    policy_name = "unsafe";
    recheck = Pipeline.On_resolve;
  }

let fence _config _program pipe =
  {
    Pipeline.always_execute_policy with
    policy_name = "fence";
    may_execute =
      (fun ~seq -> not (Pipeline.exists_older_unresolved_branch pipe ~seq));
    explain = (fun ~seq -> explain_branches pipe ~seq);
    recheck = Pipeline.On_resolve;
  }

let delay _config _program pipe =
  {
    Pipeline.always_execute_policy with
    policy_name = "delay";
    may_execute =
      (fun ~seq ->
        (not (Pipeline.is_transmitter (Pipeline.instr_of pipe seq)))
        || not (Pipeline.exists_older_unresolved_branch pipe ~seq));
    explain = (fun ~seq -> explain_branches pipe ~seq);
    recheck = Pipeline.On_resolve;
  }
