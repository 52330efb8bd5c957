(* levioso_report: render and compare evaluation results.

   Modes (first matching wins):

     levioso_report --diff POLICY MATRIX.json [--baseline unsafe]
         Differential attribution: per-cause and per-PC overhead deltas
         of POLICY against the baseline, per workload.

     levioso_report --dashboard DIR [-o dashboard.html]
         Render a levioso_serve continuous-telemetry directory
         (--history-out segments) as a self-contained operational
         dashboard: queue depth, request/error rates, latency
         percentiles, cache hit share, GC heap.

     levioso_report MATRIX.json [-o report.html] [--leak-trace LEAK.json]
         Render the matrix as a self-contained HTML report (inline SVG,
         no external resources).  LEAK.json is decoded by
         Summary.leak_of_json: a malformed one exits 1 naming the file.

   MATRIX.json is a runs document (levioso_sim --json, bench --json) or
   a BENCH_matrix.json trajectory (its default-config cells, cycles
   only); both modes read it through Summary.read_runs, so a sampled
   run counts its estimated cycles.

   An input that does not read or decode, a --dashboard directory with
   no segments and an output that cannot be written exit 1 with one
   stderr line naming the path; a missing or extra file argument is a
   usage error and exits 124.

   Performance regressions are not this tool's business: tier-1 pins
   every quick cell's cycles and each policy's allocation exactly, and
   CI checks bench output against bench/history/baseline-quick.json
   cycle for cycle. *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Tsdb = Levioso_telemetry.Tsdb
module Summary = Levioso_uarch.Summary
module Html_report = Levioso_uarch.Html_report
module Dashboard = Levioso_uarch.Dashboard
module Diff_report = Levioso_uarch.Diff_report
module Cli = Levioso_cli.Cli

let die fmt = Printf.ksprintf (Cli.runtime_error ~prog:"levioso_report") fmt

let read_json path =
  let parse body =
    Result.map_error (Printf.sprintf "%s: %s" path) (Json.of_string body)
  in
  match Result.bind (Cli.read_input path) parse with
  | Ok j -> j
  | Error msg -> die "%s" msg

let read_runs path j =
  match Summary.read_runs j with
  | Ok runs -> runs
  | Error msg -> die "%s: %s" path msg

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

(* Write a rendered page to [out], or exit 1 with [what]'s error. *)
let write_html out what = function
  | Error msg -> die "%s: %s" what msg
  | Ok html ->
    (try Out_channel.with_open_bin out (fun oc -> output_string oc html)
     with Sys_error msg -> die "%s" msg);
    Printf.printf "wrote %s (%d bytes)\n" out (String.length html);
    0

let mode_render path out title leak_trace =
  let matrix = read_json path in
  let leak =
    Option.map
      (fun p ->
        match Summary.leak_of_json (read_json p) with
        | Ok leak -> leak
        | Error msg ->
          die "%s: %s (want levioso_sim --leak-trace FILE.json output)" p msg)
      leak_trace
  in
  write_html out path (Html_report.render ~title ?leak matrix)

let mode_dashboard dir out title =
  match Tsdb.read_dir dir with
  | Ok [] ->
    die "%s: no time-series segments (run the daemon with --history-out %s)"
      dir dir
  | Ok samples -> write_html out dir (Dashboard.render ~title samples)
  | Error msg -> die "%s" msg

let main files diff baseline workload top_k as_json out title leak_trace
    dashboard =
  match (diff, dashboard, files) with
  | Some policy, _, [ path ] ->
    `Ok (mode_diff policy baseline workload top_k as_json path)
  | Some _, _, _ -> `Error (false, "--diff needs exactly one matrix file")
  | None, Some dir, [] ->
    let title =
      if title = "Levioso report" then "Levioso serve dashboard" else title
    in
    `Ok (mode_dashboard dir out title)
  | None, Some _, _ -> `Error (false, "--dashboard takes no positional files")
  | None, None, [ path ] -> `Ok (mode_render path out title leak_trace)
  | None, None, _ -> `Error (false, "expected one matrix file")

open Cmdliner

let files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE")

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
  let doc = "render and compare Levioso evaluation results" in
  let info =
    Cmd.info "levioso_report" ~doc
      ~exits:
        (Cli.exits
           ~doc:
             "when an input does not read or decode, the --dashboard \
              directory is missing, or the output cannot be written.")
  in
  Cmd.v info
    Term.(
      ret
        (const main $ files_arg $ diff_arg $ baseline_arg $ workload_arg
        $ top_k_arg $ json_arg $ out_arg $ title_arg $ leak_trace_arg
        $ dashboard_arg))

let () = exit (Cmd.eval' cmd)
