module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema

type pc_delta = {
  pc : int;
  policy_stalls : int;
  baseline_stalls : int;
  delta : int;
  audit_necessary_cycles : int;
  audit_unnecessary_cycles : int;
}

type t = {
  workload : string;
  policy : string;
  baseline : string;
  policy_cycles : int;
  baseline_cycles : int;
  overhead_cycles : int;
  overhead_pct : float;
  cause_delta : (string * int) list;
  audited_cycles : int;
  audited_unnecessary_cycles : int;
  unnecessary_share : float;
  top_pcs : pc_delta list;
}

let cause_names =
  List.map Levioso_telemetry.Stall.cause_to_string
    Levioso_telemetry.Stall.all_causes

let assoc_or_0 k l = Option.value ~default:0 (List.assoc_opt k l)

let compute ?(top_k = 10) ~(baseline : Summary.run) (run : Summary.run) =
  let policy_cycles = run.cycles and baseline_cycles = baseline.cycles in
  let overhead_cycles = policy_cycles - baseline_cycles in
  let overhead_pct =
    if baseline_cycles = 0 then 0.0
    else 100.0 *. float_of_int overhead_cycles /. float_of_int baseline_cycles
  in
  let cause_delta =
    List.map
      (fun c -> (c, assoc_or_0 c run.by_cause - assoc_or_0 c baseline.by_cause))
      cause_names
  in
  let audited_cycles, audited_unnecessary_cycles, a_pcs =
    match run.audit with
    | None -> (0, 0, [])
    | Some a ->
      ( a.restricted,
        a.unnecessary,
        List.map (fun (pc, _, nec, unnec) -> (pc, (nec, unnec))) a.top_pcs )
  in
  let unnecessary_share =
    if audited_cycles = 0 then 0.0
    else float_of_int audited_unnecessary_cycles /. float_of_int audited_cycles
  in
  let all_pcs =
    List.sort_uniq compare
      (List.map fst run.stall_pcs @ List.map fst baseline.stall_pcs)
  in
  let top_pcs =
    List.map
      (fun pc ->
        let policy_stalls = assoc_or_0 pc run.stall_pcs in
        let baseline_stalls = assoc_or_0 pc baseline.stall_pcs in
        let nec, unnec =
          Option.value ~default:(0, 0) (List.assoc_opt pc a_pcs)
        in
        {
          pc;
          policy_stalls;
          baseline_stalls;
          delta = policy_stalls - baseline_stalls;
          audit_necessary_cycles = nec;
          audit_unnecessary_cycles = unnec;
        })
      all_pcs
    |> List.sort (fun a b ->
           match compare b.delta a.delta with
           | 0 -> compare a.pc b.pc
           | c -> c)
    |> List.filteri (fun i _ -> i < top_k)
  in
  {
    workload = run.workload;
    policy = run.policy;
    baseline = baseline.policy;
    policy_cycles;
    baseline_cycles;
    overhead_cycles;
    overhead_pct;
    cause_delta;
    audited_cycles;
    audited_unnecessary_cycles;
    unnecessary_share;
    top_pcs;
  }

let to_json t =
  Schema.tag
    ([
       ("workload", Json.String t.workload);
       ("policy", Json.String t.policy);
       ("baseline", Json.String t.baseline);
       ("policy_cycles", Json.Int t.policy_cycles);
       ("baseline_cycles", Json.Int t.baseline_cycles);
       ("overhead_cycles", Json.Int t.overhead_cycles);
       ("overhead_pct", Json.float t.overhead_pct);
       ( "cause_delta",
         Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) t.cause_delta) );
       ("audited_cycles", Json.Int t.audited_cycles);
       ("audited_unnecessary_cycles", Json.Int t.audited_unnecessary_cycles);
       ("unnecessary_share", Json.float t.unnecessary_share);
     ]
    @ [
        ( "top_pcs",
          Json.List
            (List.map
               (fun d ->
                 Json.Obj
                   [
                     ("pc", Json.Int d.pc);
                     ("policy_stalls", Json.Int d.policy_stalls);
                     ("baseline_stalls", Json.Int d.baseline_stalls);
                     ("delta", Json.Int d.delta);
                     ("necessary_cycles", Json.Int d.audit_necessary_cycles);
                     ( "unnecessary_cycles",
                       Json.Int d.audit_unnecessary_cycles );
                   ])
               t.top_pcs) );
      ])

let to_rows t =
  let label =
    Printf.sprintf "%s vs %s on %s" t.policy t.baseline t.workload
  in
  [
    ("diff", label);
    ( "overhead",
      Printf.sprintf "%+d cycles (%+.1f%%)" t.overhead_cycles t.overhead_pct );
  ]
  @ List.map
      (fun (c, n) -> ("  cause " ^ c, Printf.sprintf "%+d" n))
      t.cause_delta
  @ (if t.audited_cycles = 0 then []
     else
       [
         ( "  audited restriction cycles",
           Printf.sprintf "%d (%.1f%% unnecessary)" t.audited_cycles
             (100.0 *. t.unnecessary_share) );
       ])
  @ List.map
      (fun d ->
        ( Printf.sprintf "  pc %d" d.pc,
          Printf.sprintf "%+d stall-cycles (policy %d, baseline %d%s)" d.delta
            d.policy_stalls d.baseline_stalls
            (if d.audit_necessary_cycles + d.audit_unnecessary_cycles = 0 then
               ""
             else
               Printf.sprintf "; audited %d nec / %d unnec"
                 d.audit_necessary_cycles d.audit_unnecessary_cycles) ))
      t.top_pcs
