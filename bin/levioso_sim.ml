(* levioso_sim: run suite workloads under secure-speculation defenses and
   report cycles / IPC / overhead versus the unsafe baseline.

   Examples:
     levioso_sim                          # whole suite x all policies
     levioso_sim -w stream -p levioso -v  # one cell, verbose stats
     levioso_sim -w pchase --rob 384 --predictor bimodal
     levioso_sim -w stream -p unsafe -p levioso --json    # machine-readable
     levioso_sim -w stream -p levioso --trace-out t.json  # Perfetto trace
     levioso_sim -j 8                     # cells on 8 domains

   Every (workload, policy) cell owns all of its mutable state, so the
   matrix runs on a domain pool (-j, default all cores) with output
   bit-identical to a serial run.  Tracing interleaves events from one
   cell at a time, so -j is forced to 1 when --trace/--trace-out is
   given. *)

module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Cache = Levioso_uarch.Cache
module Summary = Levioso_uarch.Summary
module Registry = Levioso_core.Registry
module Json = Levioso_telemetry.Json
module Trace = Levioso_telemetry.Trace
module Stall = Levioso_telemetry.Stall
module Audit = Levioso_telemetry.Audit
module Explain = Levioso_core.Explain
module Workload = Levioso_workload.Workload
module Parallel = Levioso_util.Parallel
module Monitor = Levioso_telemetry.Monitor
module Hostprof = Levioso_telemetry.Hostprof
module Konata = Levioso_uarch.Konata
module Sampler = Levioso_uarch.Sampler
module Flowtrace = Levioso_telemetry.Flowtrace
module Gadget = Levioso_attack.Gadget
module Catalog = Levioso_serve.Catalog
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

let run_one ?(trace = 0) ?sink ?audit ?timeline ?flow config workload policy =
  let maker = Registry.find_exn policy in
  let pipe, create_span =
    Hostprof.measure (fun () ->
        Pipeline.create ~mem_init:workload.Workload.mem_init ?audit config
          ~policy:maker workload.Workload.program)
  in
  let text_remaining = ref trace in
  (* [set_tracer] holds a single callback, so text tracing, the
     structured sink and the timeline multiplex inside one closure. *)
  if trace > 0 || sink <> None || timeline <> None then
    Pipeline.set_tracer pipe (fun ~cycle event ->
        if !text_remaining > 0 then begin
          decr text_remaining;
          Printf.printf "[%6d] %s\n" cycle (Pipeline.event_to_string event)
        end;
        (match timeline with
        | Some tl -> Konata.feed tl ~cycle event
        | None -> ());
        match sink with
        | None -> ()
        | Some s ->
          let stage, seq, pc, args = trace_event_of event in
          Trace.emit s { Trace.cycle; seq; pc; stage; args });
  (match timeline with
  | Some tl ->
    Pipeline.set_stall_tracer pipe (Konata.feed_stall tl)
  | None -> ());
  (match flow with
  | Some (secret_ranges, cb) -> Pipeline.set_flow_tracer pipe ~secret_ranges cb
  | None -> ());
  let (), run_span = Hostprof.measure (fun () -> Pipeline.run pipe) in
  (pipe, [ ("create", create_span); ("run", run_span) ])

(* One cell's -v report, rendered to a string so parallel runs can print
   cell reports in deterministic workload x policy order after the pool
   drains.  A sampled cell puts its estimate rows in [head], an exact
   cell its audit rows in [tail]. *)
let verbose_report title ?(head = []) ?(tail = []) stats hierarchy stall =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %s\n" k v))
    (head @ Sim_stats.to_rows stats
    @ List.map
        (fun (k, v) -> (k, string_of_int v))
        (Cache.Hierarchy.stats hierarchy)
    @ Stall.to_rows stall @ tail);
  Buffer.contents buf

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
    monitor sample_spec list_workloads list_policies =
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
  else if
    sample_spec <> None
    && (trace > 0 || trace_out <> None || audit_flag || audit_out <> None
       || timeline_out <> None || leak_trace <> None)
  then
    `Error
      ( false,
        "--sample runs the two-tier engine, which does not preserve the \
         per-event streams: drop --trace/--trace-out/--audit/--audit-out/\
         --timeline/--leak-trace or use --sample off" )
  else if
    timeline_out <> None
    && (List.length workloads <> 1 || List.length policies <> 1)
  then
    `Error
      ( false,
        "--timeline records a single cell: pick exactly one workload (-w) \
         and one policy (-p)" )
  else if timeline_out = None && window <> None then
    `Error (false, "--timeline-window needs --timeline")
  else if
    leak_trace <> None
    && (List.length workloads <> 1 || List.length policies <> 1)
  then
    `Error
      ( false,
        "--leak-trace records a single cell: pick exactly one workload (-w) \
         and one policy (-p)" )
  else if leak_trace = None && secret_ranges <> [] then
    `Error (false, "--secret-range needs --leak-trace")
  else begin
    let secret_ranges =
      (* the stock gadget's secret slot is the natural default *)
      if
        leak_trace <> None && secret_ranges = []
        && List.exists (fun (w : Workload.t) -> w.Workload.name = "spectre-v1") workloads
      then [ (Gadget.oob_secret_addr, Gadget.oob_secret_addr) ]
      else secret_ranges
    in
    if leak_trace <> None && secret_ranges = [] then
      `Error
        ( false,
          "--leak-trace needs at least one --secret-range A:B (only the \
           spectre-v1 workload has a built-in default)" )
    else begin
    (* an output file that cannot be written ends the run with one line
       naming it and exit 1 *)
    try
    let trace_file = Option.map (open_events ~every:trace_every) trace_out in
    let audit_file = Option.map open_events audit_out in
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
    let cells =
      List.concat_map (fun w -> List.map (fun p -> (w, p)) policies) workloads
    in
    (* Single cell when --timeline is given, so one builder suffices. *)
    let timeline =
      Option.map
        (fun _ ->
          Konata.create ?window
            (List.hd workloads).Workload.program)
        timeline_out
    in
    (* Leak tracing is single-cell too: one graph, and (for .jsonl
       output) the raw event stream written as it happens. *)
    let flow_graph = Option.map (fun _ -> Flowtrace.create ()) leak_trace in
    let flow_jsonl =
      match leak_trace with
      | Some path when Filename.check_suffix path ".jsonl" ->
        let oc = open_out path in
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
      match (timeline, flow_graph) with
      | Some tl, Some _ -> Some (Konata.flow_feeder tl)
      | _ -> None
    in
    let flow =
      Option.map
        (fun g ->
          ( secret_ranges,
            fun ~cycle ev ->
              Flowtrace.feed g ~cycle ev;
              Option.iter (fun f -> f ~cycle ev) flow_to_timeline;
              match flow_jsonl with
              | Some oc ->
                output_string oc
                  (Json.to_string ~minify:true
                     (Flowtrace.event_to_json ~cycle ev)
                  ^ "\n")
              | None -> () ))
        flow_graph
    in
    let monitor = monitor ~label:"levioso_sim" () in
    Option.iter (fun m -> Monitor.set_total m (List.length cells)) monitor;
    let run_cell ((w : Workload.t), p) =
      Option.iter
        (fun m -> Monitor.start m (w.Workload.name ^ "/" ^ p))
        monitor;
      List.iter
        (fun s -> Trace.begin_process s ~name:(w.Workload.name ^ "/" ^ p))
        (Option.to_list sink @ Option.to_list audit_sink);
      let audit =
        if audit_flag then begin
          let a = Explain.audit_for w.Workload.program in
          Option.iter (fun s -> Audit.attach_sink a s) audit_sink;
          Some a
        end
        else None
      in
      let cycles, summary, render_verbose =
        match sample_spec with
        | Some sp ->
          let maker = Registry.find_exn p in
          let r, run_span =
            Hostprof.measure (fun () ->
                Sampler.run ~mem_init:w.Workload.mem_init sp config
                  ~policy:maker w.Workload.program)
          in
          let host = [ ("run", run_span) ] in
          ( r.Sampler.estimated_cycles,
            Summary.of_sampled ~workload:w.Workload.name ~policy:p ~host r,
            fun () ->
              verbose_report
                (Printf.sprintf "%s / %s (sampled %s)" w.Workload.name p
                   (Sampler.spec_to_string r.Sampler.spec))
                ~head:
                  [
                    ( "estimated cycles",
                      Printf.sprintf "%d (+/- %.2f%%)"
                        r.Sampler.estimated_cycles r.Sampler.error_pct );
                    ( "instrs in detail",
                      Printf.sprintf "%d of %d (%d intervals)"
                        r.Sampler.detailed_instrs r.Sampler.total_instrs
                        r.Sampler.intervals );
                  ]
                r.Sampler.stats r.Sampler.hierarchy r.Sampler.stall )
        | None ->
          let pipe, host =
            run_one ~trace ?sink ?audit ?timeline ?flow config w p
          in
          ( (Pipeline.stats pipe).Sim_stats.cycles,
            Summary.of_pipeline ~workload:w.Workload.name ~policy:p ~host pipe,
            fun () ->
              verbose_report
                (Printf.sprintf "%s / %s" w.Workload.name p)
                ~tail:
                  (Option.fold ~none:[] ~some:Audit.to_rows
                     (Pipeline.audit pipe))
                (Pipeline.stats pipe) (Pipeline.hierarchy pipe)
                (Pipeline.stall_attribution pipe) )
      in
      Option.iter Monitor.item_done monitor;
      let verbose_text =
        if verbose then begin
          let text = render_verbose () in
          (* serial runs keep the report interleaved with the cell's
             trace output, exactly as before *)
          if jobs = 1 then begin
            print_string text;
            None
          end
          else Some text
        end
        else None
      in
      (cycles, summary, verbose_text)
    in
    let results = Parallel.with_pool ~size:jobs (fun pool ->
        Parallel.map pool run_cell cells)
    in
    Option.iter Monitor.close monitor;
    List.iter
      (fun (_, _, verbose_text) -> Option.iter print_string verbose_text)
      results;
    Option.iter
      (close_events ~quiet:json (fun s ->
           Printf.sprintf "trace: wrote %d of %d events" (Trace.written s)
             (Trace.seen s)))
      trace_file;
    Option.iter
      (close_events ~quiet:json (fun s ->
           Printf.sprintf "audit: wrote %d restriction events" (Trace.written s)))
      audit_file;
    (match (timeline, timeline_out) with
    | Some tl, Some path ->
      let meta =
        [
          ("workload", (List.hd workloads).Workload.name);
          ("policy", List.hd policies);
        ]
      in
      let oc = open_out_bin path in
      Konata.write ~meta tl oc;
      close_out oc;
      Printf.eprintf
        "timeline: wrote %d of %d instructions to %s (open in Konata)\n%!"
        (Konata.recorded tl) (Konata.seen tl) path
    | _ -> ());
    (match (flow_graph, leak_trace) with
    | Some g, Some path -> (
      match flow_jsonl with
      | Some oc ->
        close_out oc;
        if not json then
          Printf.eprintf "leak-trace: wrote event stream to %s\n%!" path
      | None ->
        let content =
          if Filename.check_suffix path ".json" then
            Json.to_string (Flowtrace.to_json g) ^ "\n"
          else Flowtrace.render g
        in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        if not json then
          Printf.eprintf "leak-trace: wrote %s to %s\n%!"
            (if Flowtrace.is_empty g then
               "empty leak graph (no tainted transmits)"
             else "leak graph")
            path)
    | _ -> ());
    if json then
      print_endline
        (Json.to_string (Summary.runs (List.map (fun (_, s, _) -> s) results)))
    else
      print_endline
        (Cli.overhead_table ~policies
           ~workloads:(List.map (fun w -> w.Workload.name) workloads)
           (List.map (fun (c, _, _) -> c) results));
    `Ok ()
    with Sys_error msg -> Cli.runtime_error ~prog:"levioso_sim" msg
    end
  end

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
  let info = Cmd.info "levioso_sim" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ Cli.workloads $ Cli.policies $ Cli.config $ verbose_arg
       $ trace_arg $ json_arg $ trace_out_arg $ trace_every_arg $ jobs_arg
       $ Cli.audit $ audit_out_arg $ timeline_arg $ timeline_window_arg
       $ leak_trace_arg $ secret_range_arg $ Cli.monitor $ Cli.sample
       $ list_workloads_arg $ list_policies_arg))

let () = exit (Cmd.eval cmd)
