(* levioso_report: render, track and compare evaluation results.

   Modes (first matching wins):

     levioso_report --compare OLD.json NEW.json --tolerance 15
         Regression gate: compare the latest bench-history entries (or
         bare matrix files); exit 1 when any overlapping cell slowed
         down by more than the tolerance.

     levioso_report --diff POLICY MATRIX.json [--baseline unsafe]
         Differential attribution: per-cause and per-PC overhead deltas
         of POLICY against the baseline, per workload.

     levioso_report --dashboard DIR [-o dashboard.html]
         Render a levioso_serve continuous-telemetry directory
         (--history-out segments) as a self-contained operational
         dashboard: queue depth, request/error rates, latency
         percentiles, cache hit share, GC heap, alert transitions.

     levioso_report MATRIX.json [-o report.html] [--append HIST --label L]
         Render the matrix as a self-contained HTML report (inline SVG,
         no external resources); optionally append the run's cycles to a
         history file.

   MATRIX.json is a runs document (levioso_sim --json, bench --json) or
   a BENCH_matrix.json trajectory (its default-config cells, cycles and
   host totals only); every mode reads it through Summary.read_runs, so
   a sampled run counts its estimated cycles, and input that does not
   decode exits 2 naming the file. *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Tsdb = Levioso_telemetry.Tsdb
module Summary = Levioso_uarch.Summary
module Html_report = Levioso_uarch.Html_report
module Dashboard = Levioso_uarch.Dashboard
module Diff_report = Levioso_uarch.Diff_report
module Bench_history = Levioso_uarch.Bench_history

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("levioso_report: " ^ msg); exit 2) fmt

let read_json path =
  match open_in_bin path with
  | exception Sys_error msg -> die "%s" msg
  | ic ->
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.of_string body with
    | Ok j -> j
    | Error msg -> die "%s: %s" path msg)

let read_runs path j =
  match Summary.read_runs j with
  | Ok runs -> runs
  | Error msg -> die "%s: %s" path msg

let mode_compare old_path new_path tolerance alloc_tolerance =
  let load path =
    match Bench_history.load path with
    | Ok entries -> entries
    | Error msg -> die "%s" msg
  in
  let old_ = load old_path and new_ = load new_path in
  match
    Bench_history.compare_latest ~tolerance ?alloc_tolerance ~old_ ~new_ ()
  with
  | Error msg -> die "%s" msg
  | Ok [] ->
    Printf.printf "no regression beyond %.1f%% (%s -> %s)\n" tolerance
      old_path new_path;
    0
  | Ok regressions ->
    Printf.printf "%d regression(s) beyond %.1f%%:\n"
      (List.length regressions) tolerance;
    List.iter
      (fun r -> print_endline ("  " ^ Bench_history.regression_to_string r))
      regressions;
    1

let mode_diff policy baseline workload top_k as_json path =
  let runs = read_runs path (read_json path) in
  let find p w =
    List.find_opt
      (fun (r : Summary.run) -> r.policy = p && r.workload = w)
      runs
  in
  let workloads =
    match workload with
    | Some w -> [ w ]
    | None ->
      List.filter_map
        (fun (r : Summary.run) ->
          if r.policy = policy then Some r.workload else None)
        runs
      |> List.sort_uniq compare
  in
  if workloads = [] then die "no %s runs in %s" policy path;
  let diffs =
    List.map
      (fun w ->
        match (find policy w, find baseline w) with
        | Some p, Some b -> Diff_report.compute ~top_k ~baseline:b p
        | None, _ -> die "no %s run for %s in %s" policy w path
        | _, None ->
          die "no %s baseline run for %s in %s (needed by --diff)" baseline w
            path)
      workloads
  in
  if as_json then
    print_endline
      (Json.to_string
         (Schema.tag
            [ ("diffs", Json.List (List.map Diff_report.to_json diffs)) ]))
  else
    List.iter
      (fun d ->
        List.iter
          (fun (k, v) -> Printf.printf "%-34s %s\n" k v)
          (Diff_report.to_rows d);
        print_newline ())
      diffs;
  0

let mode_render path out title append label leak_trace =
  let matrix = read_json path in
  let leak =
    Option.map
      (fun p ->
        let j = read_json p in
        (match Json.member "kind" j with
        | Some (Json.String "levioso-flowtrace") -> ()
        | _ ->
          die
            "%s: not a levioso-flowtrace document (want levioso_sim \
             --leak-trace FILE.json output)"
            p);
        j)
      leak_trace
  in
  let html =
    match Html_report.render ~title ?leak matrix with
    | Ok html -> html
    | Error msg -> die "%s: %s" path msg
  in
  let oc = open_out_bin out in
  output_string oc html;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" out (String.length html);
  (match append with
  | None -> ()
  | Some hist_path -> (
    match Bench_history.of_matrix ~label matrix with
    | Error msg -> die "%s: %s" path msg
    | Ok entry -> (
      match Bench_history.append ~path:hist_path entry with
      | Error msg -> die "%s" msg
      | Ok n ->
        Printf.printf "appended %S to %s (%d entries)\n" label hist_path n)));
  0

let mode_dashboard dir out title =
  let records =
    match Tsdb.read_dir dir with
    | Ok [] -> die "%s: no time-series segments (run the daemon with --history-out %s)" dir dir
    | Ok records -> records
    | Error msg -> die "%s" msg
  in
  let html =
    match Dashboard.render ~title records with
    | Ok html -> html
    | Error msg -> die "%s" msg
  in
  let oc = open_out_bin out in
  output_string oc html;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" out (String.length html);
  0

let main compare files diff baseline workload tolerance alloc_tolerance top_k
    as_json out title append label leak_trace dashboard =
  match (compare, diff, dashboard, files) with
  | true, _, _, [ old_path; new_path ] ->
    mode_compare old_path new_path tolerance alloc_tolerance
  | true, _, _, _ -> die "--compare needs exactly two files: OLD NEW"
  | false, Some policy, _, [ path ] ->
    mode_diff policy baseline workload top_k as_json path
  | false, Some _, _, _ -> die "--diff needs exactly one matrix file"
  | false, None, Some dir, [] ->
    let title =
      if title = "Levioso report" then "Levioso serve dashboard" else title
    in
    mode_dashboard dir out title
  | false, None, Some _, _ -> die "--dashboard takes no positional files"
  | false, None, None, [ path ] ->
    mode_render path out title append label leak_trace
  | false, None, None, _ -> die "expected one matrix file (try --help)"

open Cmdliner

let files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE")

let compare_arg =
  Arg.(
    value & flag
    & info [ "compare" ]
        ~doc:
          "Regression gate: compare the latest entries of two history (or \
           matrix) files; exit 1 when a cell slowed down beyond \
           --tolerance.")

let diff_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "diff" ] ~docv:"POLICY"
        ~doc:
          "Differential attribution of $(docv) against --baseline, per \
           workload of the matrix file.")

let baseline_arg =
  Arg.(
    value & opt string "unsafe"
    & info [ "baseline" ] ~docv:"POLICY"
        ~doc:"Baseline policy for --diff (default unsafe).")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME" ~doc:"Restrict --diff to one workload.")

let tolerance_arg =
  Arg.(
    value & opt float 15.0
    & info [ "tolerance" ] ~docv:"PCT"
        ~doc:"Allowed per-cell cycle growth for --compare, in percent.")

let alloc_tolerance_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "alloc-tolerance" ] ~docv:"PCT"
        ~doc:
          "Allowed per-cell host-allocation growth for --compare, in percent \
           (defaults to --tolerance; only checked for cells whose histories \
           recorded host profiles on both sides).")

let top_k_arg =
  Arg.(
    value & opt int 10
    & info [ "top-k" ] ~docv:"K" ~doc:"PCs listed in --diff output.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit --diff output as JSON.")

let out_arg =
  Arg.(
    value & opt string "report.html"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"HTML output path.")

let title_arg =
  Arg.(
    value & opt string "Levioso report"
    & info [ "title" ] ~docv:"TITLE" ~doc:"HTML report title.")

let append_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "append" ] ~docv:"HISTORY"
        ~doc:
          "Also append the matrix's (workload, policy, cycles) cells as one \
           entry to this bench-history file (created if missing).")

let label_arg =
  Arg.(
    value & opt string "run"
    & info [ "label" ] ~docv:"LABEL" ~doc:"Entry label for --append.")

let leak_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "leak-trace" ] ~docv:"FILE"
        ~doc:
          "Embed the leak graph from $(docv) (a levioso-flowtrace JSON \
           document written by levioso_sim --leak-trace FILE.json) as a \
           \"Speculative leakage provenance\" section of the HTML report.")

let dashboard_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dashboard" ] ~docv:"DIR"
        ~doc:
          "Render the levioso_serve continuous-telemetry segments in \
           $(docv) (written by serve --history-out) as a self-contained \
           HTML operational dashboard.  Byte-deterministic: re-rendering \
           the same segments produces an identical file.")

let cmd =
  let doc = "render, track and compare Levioso evaluation results" in
  let info = Cmd.info "levioso_report" ~doc in
  Cmd.v info
    Term.(
      const main $ compare_arg $ files_arg $ diff_arg $ baseline_arg
      $ workload_arg $ tolerance_arg $ alloc_tolerance_arg $ top_k_arg
      $ json_arg $ out_arg $ title_arg $ append_arg $ label_arg
      $ leak_trace_arg $ dashboard_arg)

let () = exit (Cmd.eval' cmd)
