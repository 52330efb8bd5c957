(* levioso_sim: run suite workloads under secure-speculation defenses and
   report cycles / IPC / overhead versus the unsafe baseline.

   Examples:
     levioso_sim                          # whole suite x all policies
     levioso_sim -w stream -p levioso -v  # one cell, verbose stats
     levioso_sim -w pchase --rob 384 --predictor bimodal
     levioso_sim -w stream -p unsafe -p levioso --json    # machine-readable
     levioso_sim -w stream -p levioso --trace-out t.json  # Perfetto trace
     levioso_sim -j 8                     # cells on 8 domains
     levioso_sim --remote lev.sock -w stream --json  # on a levioso_serve daemon

   Every (workload, policy) cell runs through Levioso_serve.Engine.run_cell,
   the cell runner bench and the levioso_serve daemon use, and -v renders
   the cell's summary (Summary.verbose), so --remote prints the same
   bytes as a local run.  Tracers hook into the cell's pipeline through
   run_cell's observer, which is why they need a local run.  Every cell
   owns all of its mutable state, so the matrix runs on a domain pool
   (-j, default all cores) with output bit-identical to a serial run.
   Tracing interleaves events from one cell at a time, so -j is forced
   to 1 when --trace/--trace-out is given. *)

module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Summary = Levioso_uarch.Summary
module Json = Levioso_telemetry.Json
module Trace = Levioso_telemetry.Trace
module Audit = Levioso_telemetry.Audit
module Workload = Levioso_workload.Workload
module Konata = Levioso_uarch.Konata
module Flowtrace = Levioso_telemetry.Flowtrace
module Gadget = Levioso_attack.Gadget
module Catalog = Levioso_serve.Catalog
module Protocol = Levioso_serve.Protocol
module Engine = Levioso_serve.Engine
module Client = Levioso_serve.Client
module Cli = Levioso_cli.Cli

let trace_event_of = function
  | Pipeline.Fetched { seq; pc } ->
    ("fetch", seq, pc, [])
  | Pipeline.Issued { seq; pc } -> ("issue", seq, pc, [])
  | Pipeline.Completed { seq; pc } -> ("complete", seq, pc, [])
  | Pipeline.Committed { seq; pc } -> ("commit", seq, pc, [])
  | Pipeline.Branch_resolved { seq; pc; taken; mispredicted } ->
    ( "resolve",
      seq,
      pc,
      [ ("taken", Json.Bool taken); ("mispredicted", Json.Bool mispredicted) ]
    )
  | Pipeline.Squashed { boundary; count } ->
    ("squash", boundary, -1, [ ("count", Json.Int count) ])

(* A structured event file (--trace-out, --audit-out): Chrome
   trace_event JSON, or JSONL when the name ends in .jsonl.  It is
   opened before the matrix runs, labelled with each cell's name, and
   closed after it with a one-line note on stderr. *)
type event_file = { path : string; oc : out_channel; sink : Trace.sink }

let open_events ?every path =
  let oc = open_out path in
  let format = Trace.format_of_filename path in
  { path; oc; sink = Trace.to_channel ?every ~format oc }

let close_events ~quiet note f =
  Trace.close f.sink;
  close_out f.oc;
  if not quiet then Printf.eprintf "%s to %s\n%!" (note f.sink) f.path

let main workloads policies config verbose trace json trace_out trace_every
    jobs audit_flag audit_out timeline_out window leak_trace secret_ranges
    monitor sample_spec remote list_workloads list_policies =
  if list_workloads || list_policies then begin
    (* the same roster the levioso_serve wire protocol's `list` request
       advertises — one name set across every surface *)
    if list_workloads then
      List.iter
        (fun (n, d) -> Printf.printf "%-16s %s\n" n d)
        (Catalog.listing ());
    if list_policies then
      List.iter print_endline (Catalog.policies ());
    `Ok ()
  end
  else
    let secret_ranges =
      (* the stock gadget's secret slot is the natural default *)
      if
        leak_trace <> None && secret_ranges = []
        && List.exists (fun (w : Workload.t) -> w.Workload.name = "spectre-v1") workloads
      then [ (Gadget.oob_secret_addr, Gadget.oob_secret_addr) ]
      else secret_ranges
    in
    (* the first flag combination that cannot run, if any *)
    let refusal =
      List.find_opt fst
        [
          ( sample_spec <> None
            && (trace > 0 || trace_out <> None || audit_flag || audit_out <> None
               || timeline_out <> None || leak_trace <> None),
            "--sample runs the two-tier engine, which does not preserve the \
             per-event streams: drop --trace/--trace-out/--audit/--audit-out/\
             --timeline/--leak-trace or use --sample off" );
          ( remote <> None
            && (trace > 0 || trace_out <> None || audit_out <> None
               || timeline_out <> None || leak_trace <> None),
            "--remote runs every cell on the daemon, where no local pipeline \
             can be traced: drop --trace/--trace-out/--audit-out/--timeline/\
             --leak-trace or --remote" );
          (timeline_out = None && window <> None, "--timeline-window needs --timeline");
          ( (timeline_out <> None || leak_trace <> None)
            && (List.length workloads <> 1 || List.length policies <> 1),
            Printf.sprintf
              "%s records a single cell: pick exactly one workload (-w) and \
               one policy (-p)"
              (if timeline_out <> None then "--timeline" else "--leak-trace") );
          (leak_trace = None && secret_ranges <> [], "--secret-range needs --leak-trace");
          ( leak_trace <> None && secret_ranges = [],
            "--leak-trace needs at least one --secret-range A:B (only the \
             spectre-v1 workload has a built-in default)" );
        ]
    in
    match refusal with
    | Some (_, msg) -> `Error (false, msg)
    | None -> (
    (* an output file that cannot be written ends the run with one line
       naming it and exit 1; every output opens before the first cell
       runs, so that line comes before any simulation *)
    try
    let trace_file = Option.map (open_events ~every:trace_every) trace_out in
    let audit_file = Option.map open_events audit_out in
    (* --timeline and --leak-trace record a single cell: one Konata
       builder, one leak graph *)
    let timeline =
      Option.map
        (fun path ->
          ( path,
            open_out_bin path,
            Konata.create ?window (List.hd workloads).Workload.program ))
        timeline_out
    in
    let leak =
      Option.map (fun path -> (path, open_out path, Flowtrace.create ())) leak_trace
    in
    let sink = Option.map (fun f -> f.sink) trace_file in
    let audit_sink = Option.map (fun f -> f.sink) audit_file in
    let audit_flag = audit_flag || audit_sink <> None in
    (* Tracing (and an audit event stream) funnels every cell's events
       into one channel in run order, so it pins the matrix to one
       domain.  A timeline is single-cell by construction. *)
    let jobs =
      if sink <> None || audit_sink <> None || trace > 0 || timeline_out <> None
      then 1
      else jobs
    in
    let cell (w : Workload.t) policy =
      let workload = w.Workload.name in
      { Protocol.config; workload; policy; audit = audit_flag; sample = sample_spec }
    in
    let cells = List.concat_map (fun w -> List.map (cell w) policies) workloads in
    (* A .jsonl leak trace is the raw event stream, written as it
       happens. *)
    let flow_jsonl =
      match leak with
      | Some (path, oc, _) when Filename.check_suffix path ".jsonl" ->
        output_string oc
          (Json.to_string ~minify:true
             (Levioso_telemetry.Schema.tag
                [ ("kind", Json.String "levioso-flowtrace-events") ])
          ^ "\n");
        Some oc
      | _ -> None
    in
    (* With --timeline as well, tainted instructions get highlighted
       source/transmit marks in the Konata view. *)
    let flow_to_timeline =
      match (timeline, leak) with
      | Some (_, _, tl), Some _ -> Some (Konata.flow_feeder tl)
      | _ -> None
    in
    let flow =
      Option.map
        (fun (_, _, g) ~cycle ev ->
          Flowtrace.feed g ~cycle ev;
          Option.iter (fun f -> f ~cycle ev) flow_to_timeline;
          match flow_jsonl with
          | Some oc ->
            output_string oc
              (Json.to_string ~minify:true (Flowtrace.event_to_json ~cycle ev)
              ^ "\n")
          | None -> ())
        leak
    in
    (* Everything that watches a cell's events hooks into its pipeline
       here, between Engine.run_cell's create and run.  [set_tracer]
       holds a single callback, so text tracing, the structured sink and
       the timeline multiplex inside one closure. *)
    let observe name pipe =
      List.iter
        (fun s -> Trace.begin_process s ~name)
        (Option.to_list sink @ Option.to_list audit_sink);
      Option.iter
        (fun s -> Option.iter (fun a -> Audit.attach_sink a s) (Pipeline.audit pipe))
        audit_sink;
      let text_remaining = ref trace in
      if trace > 0 || sink <> None || timeline <> None then
        Pipeline.set_tracer pipe (fun ~cycle event ->
            if !text_remaining > 0 then begin
              decr text_remaining;
              Printf.printf "[%6d] %s\n" cycle (Pipeline.event_to_string event)
            end;
            Option.iter (fun (_, _, tl) -> Konata.feed tl ~cycle event) timeline;
            match sink with
            | None -> ()
            | Some s ->
              let stage, seq, pc, args = trace_event_of event in
              Trace.emit s { Trace.cycle; seq; pc; stage; args });
      Option.iter
        (fun (_, _, tl) -> Pipeline.set_stall_tracer pipe (Konata.feed_stall tl))
        timeline;
      Option.iter (Pipeline.set_flow_tracer pipe ~secret_ranges) flow
    in
    (* serial runs keep the report interleaved with the cell's trace
       output; parallel and remote ones print every report once the
       matrix is done *)
    let interleave = verbose && jobs = 1 && remote = None in
    let run_cell (cell : Protocol.cell) =
      let name = cell.Protocol.workload ^ "/" ^ cell.Protocol.policy in
      let summary = (Engine.run_cell ~observe:(observe name) cell).Engine.summary in
      if interleave then print_string (Summary.verbose summary);
      summary
    in
    let summaries =
      Cli.run_matrix ~prog:"levioso_sim" ?remote
        ?monitor:(monitor ~label:"levioso_sim" ())
        ~jobs ~local:run_cell
        ~of_remote:(fun r -> r.Client.summary)
        cells
    in
    if verbose && not interleave then
      List.iter (fun s -> print_string (Summary.verbose s)) summaries;
    Option.iter
      (close_events ~quiet:json (fun s ->
           Printf.sprintf "trace: wrote %d of %d events" (Trace.written s)
             (Trace.seen s)))
      trace_file;
    Option.iter
      (close_events ~quiet:json (fun s ->
           Printf.sprintf "audit: wrote %d restriction events" (Trace.written s)))
      audit_file;
    Option.iter
      (fun (path, oc, tl) ->
        let meta =
          [
            ("workload", (List.hd workloads).Workload.name);
            ("policy", List.hd policies);
          ]
        in
        Konata.write ~meta tl oc;
        close_out oc;
        Printf.eprintf
          "timeline: wrote %d of %d instructions to %s (open in Konata)\n%!"
          (Konata.recorded tl) (Konata.seen tl) path)
      timeline;
    Option.iter
      (fun (path, oc, g) ->
        if flow_jsonl = None then
          output_string oc
            (if Filename.check_suffix path ".json" then
               Json.to_string (Flowtrace.to_json g) ^ "\n"
             else Flowtrace.render g);
        close_out oc;
        if not json then
          if flow_jsonl <> None then
            Printf.eprintf "leak-trace: wrote event stream to %s\n%!" path
          else
            Printf.eprintf "leak-trace: wrote %s to %s\n%!"
              (if Flowtrace.is_empty g then
                 "empty leak graph (no tainted transmits)"
               else "leak graph")
              path)
      leak;
    if json then print_endline (Json.to_string (Summary.runs summaries))
    else
      print_endline
        (Cli.overhead_table ~policies
           ~workloads:(List.map (fun w -> w.Workload.name) workloads)
           (List.map
              (fun s -> (Json.ok_exn (Summary.stats s)).Sim_stats.cycles)
              summaries));
    `Ok ()
    with Sys_error msg -> Cli.runtime_error ~prog:"levioso_sim" msg)

open Cmdliner

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full per-run statistics.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:"Print the first N microarchitectural events of each run.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the full workload x policy matrix as JSON (per-run stats, \
           cache counters and the per-cause stall breakdown) instead of the \
           table.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a structured event trace to $(docv): Chrome trace_event \
           JSON (open in Perfetto or chrome://tracing), or JSONL when the \
           file ends in .jsonl.")

let trace_every_arg =
  let positive =
    Cli.checked_int (fun k -> if k >= 1 then Ok () else Error "must be >= 1")
  in
  Arg.(
    value & opt positive 1
    & info [ "trace-every" ] ~docv:"K"
        ~doc:"Sample the structured trace: keep every K-th event (default 1).")

let audit_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-out" ] ~docv:"FILE"
        ~doc:
          "Stream every audit event to $(docv) (implies --audit): Chrome \
           trace_event JSON, or JSONL when the file ends in .jsonl.")

let timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Write an instruction-lifecycle pipeline trace (Kanata 0004 \
           format, open in Konata) to $(docv).  Records a single cell: \
           requires exactly one -w and one -p.  Stages F/I/X/C on lane 0, \
           per-cycle stall causes on lane 1, squashes as flush markers.")

(* A:B, checked while parsing *)
let range what =
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv' (Flowtrace.parse_range ~what, print)

let timeline_window_arg =
  Arg.(
    value
    & opt (some (range "--timeline-window")) None
    & info [ "timeline-window" ] ~docv:"A:B"
        ~doc:
          "Record only instructions fetched in cycles A..B (inclusive), so \
           million-cycle runs stay tractable.  Needs --timeline.")

let leak_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "leak-trace" ] ~docv:"FILE"
        ~doc:
          "Trace speculative information flow from secret data to \
           attacker-visible probes and write the leak graph to $(docv): \
           human-readable text by default, the structured graph when the \
           file ends in .json, or the raw event stream when it ends in \
           .jsonl.  Records a single cell: requires exactly one -w and one \
           -p.  Secret locations come from --secret-range (the spectre-v1 \
           workload has a built-in default).")

let secret_range_arg =
  Arg.(
    value
    & opt_all (range "--secret-range") []
    & info [ "secret-range" ] ~docv:"A:B"
        ~doc:
          "Word-address range (inclusive) holding secret data, seeding the \
           --leak-trace taint sources (repeatable).")

let list_workloads_arg =
  Arg.(
    value & flag
    & info [ "list-workloads" ]
        ~doc:
          "Print every resolvable workload (suite kernels, extras like \
           stream-xl, compiled Lev workloads, spectre-v1) with its \
           description, then exit.")

let list_policies_arg =
  Arg.(
    value & flag
    & info [ "list-policies" ]
        ~doc:"Print every registered defense policy, then exit.")

let jobs_arg =
  Cli.jobs
    ~doc:
      "Simulate (workload x policy) cells on $(docv) domains; 0 (the \
       default) uses every core.  Results are bit-identical to -j 1.  \
       Tracing (--trace/--trace-out/--audit-out) forces serial execution."

let cmd =
  let doc = "simulate workloads under secure-speculation defenses" in
  let info =
    Cmd.info "levioso_sim" ~doc
      ~exits:
        (Cli.exits
           ~doc:
             "when an output file cannot be written or the --remote daemon \
              cannot be reached or fails.")
  in
  Cmd.v info
    Term.(
      ret
        (const main $ Cli.workloads $ Cli.policies $ Cli.config $ verbose_arg
       $ trace_arg $ json_arg $ trace_out_arg $ trace_every_arg $ jobs_arg
       $ Cli.audit $ audit_out_arg $ timeline_arg $ timeline_window_arg
       $ leak_trace_arg $ secret_range_arg $ Cli.monitor $ Cli.sample
       $ Cli.remote $ list_workloads_arg $ list_policies_arg))

let () = exit (Cmd.eval cmd)
