module Config = Levioso_uarch.Config
module Sampler = Levioso_uarch.Sampler
module Registry = Levioso_core.Registry
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Monitor = Levioso_telemetry.Monitor
module Parallel = Levioso_util.Parallel
module Report = Levioso_util.Report
module Stats = Levioso_util.Stats
module Catalog = Levioso_serve.Catalog
module Protocol = Levioso_serve.Protocol
module Client = Levioso_serve.Client
open Cmdliner

let unknown what name known =
  Error
    (Printf.sprintf "unknown %s %S (known: %s)" what name
       (String.concat ", " known))

let workload =
  let parse name =
    match Catalog.find_workload name with
    | Some w -> Ok w
    | None -> unknown "workload" name (Catalog.workload_names ())
  in
  let print ppf (w : Workload.t) = Format.pp_print_string ppf w.Workload.name in
  Arg.conv' (parse, print)

let policy =
  let parse name =
    if Registry.find name <> None then Ok name
    else unknown "policy" name Registry.names
  in
  Arg.conv' (parse, Format.pp_print_string)

(* An integer flag whose value must satisfy [check]. *)
let checked_int check =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
    | Some n -> Result.map (fun () -> n) (check n)
  in
  Arg.conv' (parse, Format.pp_print_int)

let non_negative =
  checked_int (fun n -> if n >= 0 then Ok () else Error "must be >= 0")

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (Printf.sprintf "invalid value '%s', expected a number" s)
    | Some f when f > 0. && Float.is_finite f -> Ok f
    | Some _ -> Error "must be a finite number > 0"
  in
  Arg.conv' (parse, Format.pp_print_float)

let workloads =
  let doc =
    "Workload to run (repeatable; default: the whole suite). Known: "
    ^ String.concat ", " (Catalog.workload_names ())
    ^ " (spectre-v1 is the stock bounds-check-bypass gadget, the \
       canonical --leak-trace victim)."
  in
  Term.(
    const (function [] -> Suite.all | ws -> ws)
    $ Arg.(
        value & opt_all workload []
        & info [ "w"; "workload" ] ~docv:"NAME" ~doc))

let policies =
  let doc =
    "Defense policy (repeatable; default: all). Known: "
    ^ String.concat ", " Registry.names
  in
  Term.(
    const (function [] -> Registry.names | ps -> ps)
    $ Arg.(
        value & opt_all policy [] & info [ "p"; "policy" ] ~docv:"NAME" ~doc))

let config =
  (* one field over the default config, checked where it is parsed *)
  let field get set arg_info =
    let valid = checked_int (fun n -> Config.validate (set Config.default n)) in
    Arg.(value & opt valid (get Config.default) arg_info)
  in
  let rob =
    field
      (fun c -> c.Config.rob_size)
      (fun c rob_size -> { c with Config.rob_size })
      Arg.(info [ "rob" ] ~docv:"N" ~doc:"Reorder-buffer size.")
  in
  let budget =
    field
      (fun c -> c.Config.depset_budget)
      (fun c depset_budget -> { c with Config.depset_budget })
      Arg.(info [ "budget" ] ~docv:"K" ~doc:"Dependency-set hardware budget.")
  in
  let predictor =
    let kind k = (Config.predictor_kind_to_string k, k) in
    Arg.(
      value
      & opt
          (enum
             (List.map kind
                [ Config.Always_taken; Bimodal; Gshare; Tage ]))
          Config.default.Config.predictor
      & info [ "predictor" ] ~docv:"KIND"
          ~doc:"Branch predictor: always-taken, bimodal, gshare or tage.")
  in
  Term.(
    const (fun rob_size predictor depset_budget ->
        { Config.default with Config.rob_size; predictor; depset_budget })
    $ rob $ predictor $ budget)

let audit =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Record restriction provenance: every policy refusal becomes an \
           audit event with its cause (the gating branches or tainted \
           producers) and a necessary/unnecessary classification against \
           the static branch-dependence analysis.  Run summaries gain an \
           audit section.  Audited runs never enter a result store.")

let sample =
  let print ppf = function
    | None -> Format.pp_print_string ppf "off"
    | Some sp -> Format.pp_print_string ppf (Sampler.spec_to_string sp)
  in
  Arg.(
    value
    & opt (conv' (Sampler.parse, print)) None
    & info [ "sample" ] ~docv:"N:W[:P]"
        ~doc:
          "Two-tier sampled simulation: fast-forward architecturally with \
           functional cache/predictor warming, and simulate in cycle-level \
           detail only N instructions out of every P*N (default P = 10), \
           after W detailed warmup instructions.  Reported cycles are an \
           extrapolated estimate with a 95%-confidence error bound (the \
           $(b,sampled) section of a run summary) and never enter a \
           result store.  $(b,off) (the default) runs the ordinary \
           full-detail simulation.  Incompatible with the audit and the \
           per-event streams.")

let jobs ~doc =
  Term.(
    const (fun n -> if n = 0 then Parallel.default_size () else n)
    $ Arg.(
        value & opt non_negative 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let monitor =
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Render an in-place live status line on stderr (items \
             done/total, ETA, what each domain is working on), even when \
             stderr is not a terminal.  Purely observational: results are \
             bit-identical with or without it.")
  in
  let metrics_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Periodically write progress gauges in OpenMetrics text format \
             to $(docv) (atomic rename, scrapable).")
  in
  let make force_ansi metrics_path ~label () =
    if force_ansi || metrics_path <> None then
      (* the status line shows on a TTY and is suppressed when stderr is
         piped, unless --progress forces it *)
      Some (Monitor.create ~ansi:stderr ~force_ansi ?metrics_path ~label ())
    else None
  in
  Term.(const make $ progress $ metrics_path)

let remote =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SOCKET"
        ~doc:
          "Run the matrix on the levioso_serve daemon listening at \
           $(docv) instead of in this process; the results are the same \
           bytes.  A cell the daemon fails runs here.")

let read_input path =
  try
    if Sys.is_directory path then Error (path ^ ": is a directory")
    else Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error msg -> (* "<path>: <reason>" *) Error msg

let exits ~doc = Cmd.Exit.info 1 ~doc :: Cmd.Exit.defaults

let runtime_error ~prog msg =
  Printf.eprintf "%s: %s\n%!" prog msg;
  exit 1

(* One batch on the daemon.  Timings and failed cells go to stderr only:
   stdout must stay the bytes a local run prints. *)
let on_daemon ~prog ~cache ~local ~of_remote ~item_done socket cells =
  let client =
    try Client.connect socket
    with Client.Server_error msg -> runtime_error ~prog msg
  in
  let timings (tm : Client.timings) =
    Printf.eprintf
      "--remote: trace %s — ack %.1fms, first result %s, drain %.2fs, \
       total %.2fs\n\
       %!"
      tm.Client.trace (tm.Client.ack_s *. 1e3)
      (match tm.Client.first_result_s with
      | Some s -> Printf.sprintf "%.2fs" s
      | None -> "-")
      tm.Client.drain_s tm.Client.total_s
  in
  (* a failed cell is counted done by its local run *)
  let on_result _ (r : Client.result_cell) =
    if r.Client.error = None then item_done ()
  in
  let results =
    match Client.submit ~cache ~on_result ~timings client cells with
    | results, _ ->
      Client.close client;
      Array.to_list results
    | exception Client.Server_error msg -> runtime_error ~prog (socket ^ ": " ^ msg)
  in
  List.mapi
    (fun i ((cell : Protocol.cell), (r : Client.result_cell)) ->
      match r.Client.error with
      | None -> of_remote r
      | Some msg ->
        Printf.eprintf "--remote: cell %d (%s/%s) failed: %s; running it here\n%!"
          i cell.Protocol.workload cell.Protocol.policy msg;
        local cell)
    (List.combine cells results)

let run_matrix ~prog ?remote ?(cache = true) ?monitor ~jobs ~local ~of_remote
    cells =
  Option.iter (fun m -> Monitor.set_total m (List.length cells)) monitor;
  let item_done () = Option.iter Monitor.item_done monitor in
  let local (cell : Protocol.cell) =
    Option.iter
      (fun m -> Monitor.start m (cell.Protocol.workload ^ "/" ^ cell.Protocol.policy))
      monitor;
    let r = local cell in
    item_done ();
    r
  in
  let results =
    match remote with
    | Some socket -> on_daemon ~prog ~cache ~local ~of_remote ~item_done socket cells
    | None ->
      Parallel.with_pool ~size:jobs (fun pool -> Parallel.map pool local cells)
  in
  Option.iter Monitor.close monitor;
  results

let overhead_table ~policies ~workloads cycles =
  let header = "workload" :: List.map (fun p -> p ^ " (cyc)") policies in
  let n = List.length policies in
  let cycles = Array.of_list cycles in
  let row i w =
    let cycles = Array.to_list (Array.sub cycles (i * n) n) in
    let base = List.assoc_opt "unsafe" (List.combine policies cycles) in
    w
    :: List.map
         (fun c ->
           match base with
           | Some b when b > 0 && b <> c ->
             Printf.sprintf "%d (%+.1f%%)" c
               (Stats.overhead_pct ~baseline:(float_of_int b) (float_of_int c))
           | Some _ | None -> string_of_int c)
         cycles
  in
  Report.table ~header ~rows:(List.mapi row workloads)
