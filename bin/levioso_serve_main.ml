(* levioso_serve: simulation as a service.

   A long-lived daemon owns one domain pool and one sharded result
   store; clients submit batched (workload x policy x config) matrices
   over a Unix-domain socket and stream results back in submission
   order, bit-identical to a local serial run.

   Examples:
     levioso_serve serve --socket /tmp/lev.sock -j 8 &
     levioso_serve list --socket /tmp/lev.sock
     levioso_serve submit --socket /tmp/lev.sock -w stream -p levioso --json
     levioso_serve stress --socket /tmp/lev.sock --cells 200
     levioso_serve shutdown --socket /tmp/lev.sock *)

module Config = Levioso_uarch.Config
module Sampler = Levioso_uarch.Sampler
module Run_cache = Levioso_uarch.Run_cache
module Registry = Levioso_core.Registry
module Suite = Levioso_workload.Suite
module Json = Levioso_telemetry.Json
module Monitor = Levioso_telemetry.Monitor
module Span = Levioso_telemetry.Span
module Tsdb = Levioso_telemetry.Tsdb
module Alerts = Levioso_telemetry.Alerts
module Report = Levioso_util.Report
module Stats = Levioso_util.Stats
module Serve = Levioso_serve
module Protocol = Levioso_serve.Protocol
module Client = Levioso_serve.Client
module Server = Levioso_serve.Server
module Catalog = Levioso_serve.Catalog

(* ---------- serve ---------- *)

let serve socket jobs queue_max cache_dir no_cache metrics_file progress_file
    trace_out access_log_path history_out history_interval alerts_file quiet =
  if jobs < 0 then `Error (false, "-j expects a non-negative integer")
  else if queue_max < 0 then
    `Error (false, "--queue-max expects a non-negative integer")
  else if history_interval <= 0. then
    `Error (false, "--history-interval expects a positive number of seconds")
  else if alerts_file <> None && history_out = None then
    `Error
      ( false,
        "--alerts needs --history-out (rules are evaluated against the \
         recorded samples)" )
  else begin
    let history =
      match history_out with
      | None -> Ok None
      | Some dir -> (
        match
          match alerts_file with None -> Ok [] | Some f -> Alerts.load f
        with
        | Error msg -> Error msg
        | Ok alert_rules ->
          Ok
            (Some
               {
                 Server.history_dir = dir;
                 history_interval_s = history_interval;
                 alert_rules;
               }))
    in
    match history with
    | Error msg -> `Error (false, msg)
    | Ok history ->
    let cache =
      if no_cache then None else Some (Run_cache.create ~dir:cache_dir ())
    in
    let monitor =
      if metrics_file <> None || progress_file <> None then
        Some
          (Monitor.create ?json_path:progress_file ?metrics_path:metrics_file
             ~label:"levioso_serve" ())
      else None
    in
    let log =
      if quiet then None
      else
        Some
          (fun msg ->
            Printf.eprintf "[levioso_serve %.3f] %s\n%!"
              (Unix.gettimeofday ()) msg)
    in
    let pool_size =
      if jobs = 0 then Levioso_util.Parallel.default_size () else jobs
    in
    (* the collector also powers the access log's engine-stage columns,
       so either flag turns it on *)
    let spans =
      if trace_out <> None || access_log_path <> None then
        Some (Span.create ())
      else None
    in
    let access_log = Option.map open_out access_log_path in
    let close_access () =
      Option.iter (fun oc -> try close_out oc with Sys_error _ -> ()) access_log
    in
    match
      Server.run
        {
          Server.socket_path = socket;
          pool_size;
          queue_max = (if queue_max = 0 then None else Some queue_max);
          cache;
          monitor;
          log;
          spans;
          access_log;
          history;
        }
    with
    | () ->
      (match (spans, trace_out) with
      | Some sp, Some path ->
        let oc = open_out path in
        Span.write_chrome oc (Span.drain sp);
        close_out oc
      | _ -> ());
      close_access ();
      `Ok ()
    | exception Failure msg ->
      close_access ();
      `Error (false, msg)
    | exception Unix.Unix_error (e, fn, arg) ->
      close_access ();
      `Error
        ( false,
          Printf.sprintf "%s: %s(%s): %s" socket fn arg (Unix.error_message e)
        )
  end

(* ---------- client-side helpers ---------- *)

let with_client socket f =
  match Client.connect socket with
  | exception Client.Server_error msg -> `Error (false, msg)
  | c -> (
    match f c with
    | v ->
      Client.close c;
      `Ok v
    | exception Client.Server_error msg ->
      Client.close c;
      `Error (false, msg))

let cycles_of_summary summary =
  let stat block field =
    Option.bind (Json.member block summary) (Json.member field)
  in
  match stat "sampled" "estimated_cycles" with
  | Some (Json.Int n) -> n
  | _ -> (
    match stat "stats" "cycles" with
    | Some (Json.Int n) -> n
    | _ -> -1)

let print_batch_stats (stats : Protocol.done_stats) =
  Printf.eprintf "serve: %d simulated, %d cached%s in %.2fs\n%!"
    stats.Protocol.simulated stats.Protocol.cached
    (if stats.Protocol.failed > 0 then
       Printf.sprintf ", %d FAILED" stats.Protocol.failed
     else "")
    stats.Protocol.wall_s

let print_cell_errors cells (results : Client.result_cell array) =
  Array.iteri
    (fun i (r : Client.result_cell) ->
      match r.Client.error with
      | Some msg ->
        let cell = List.nth cells i in
        Printf.eprintf "serve: cell %d (%s/%s) failed: %s\n%!" i
          cell.Protocol.workload cell.Protocol.policy msg
      | None -> ())
    results

(* ---------- human-readable stats rendering (stats / top) ---------- *)

let fmt_dur s =
  if s < 0.001 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let fmt_uptime s =
  let s = int_of_float s in
  if s >= 3600 then
    Printf.sprintf "%dh %dm %ds" (s / 3600) (s mod 3600 / 60) (s mod 60)
  else if s >= 60 then Printf.sprintf "%dm %ds" (s / 60) (s mod 60)
  else Printf.sprintf "%ds" s

let render_stats socket j =
  let num name =
    match Json.member name j with
    | Some (Json.Int n) -> float_of_int n
    | Some (Json.Float f) -> f
    | _ -> 0.
  in
  let int_ name = int_of_float (num name) in
  let gauge name =
    match Option.bind (Json.member "gauges" j) (Json.member name) with
    | Some (Json.Float f) -> int_of_float f
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "levioso_serve @ %s — up %s, proto %d, pool %d, cache %s\n" socket
    (fmt_uptime (num "uptime_s"))
    (int_ "proto") (int_ "pool")
    (match Json.member "cache" j with
    | Some (Json.Bool true) -> "on"
    | _ -> "off");
  Printf.bprintf buf
    "requests %d   errors %d   clients %d   queue %d   inflight %d\n"
    (int_ "requests") (int_ "errors") (gauge "serve_clients")
    (gauge "serve_queue_depth")
    (gauge "serve_inflight");
  Printf.bprintf buf "cells: %d simulated, %d cached, %d merged\n\n"
    (gauge "serve_cells_simulated")
    (gauge "serve_cells_cached")
    (gauge "serve_cells_merged");
  let header = [ "stage"; "seen"; "window"; "p50"; "p95"; "p99" ] in
  let rows =
    match Json.member "latency" j with
    | Some (Json.Obj stages) ->
      List.map
        (fun (stage, sj) ->
          let dur name =
            match Json.member name sj with
            | Some (Json.Float v) -> fmt_dur v
            | Some (Json.Int v) -> fmt_dur (float_of_int v)
            | _ -> "-"
          in
          let count name =
            match Json.member name sj with
            | Some (Json.Int v) -> string_of_int v
            | _ -> "0"
          in
          [
            stage; count "seen"; count "window"; dur "p50_s"; dur "p95_s";
            dur "p99_s";
          ])
        stages
    | _ -> []
  in
  Buffer.add_string buf (Report.table ~header ~rows);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------- submit ---------- *)

let submit socket workload_names policy_names rob predictor budget audit
    sample no_cache json quiet =
  match Sampler.parse sample with
  | Error msg -> `Error (false, msg)
  | Ok sample_spec ->
    let config =
      {
        Config.default with
        Config.rob_size = rob;
        predictor;
        depset_budget = budget;
      }
    in
    let workloads =
      match workload_names with [] -> Suite.names | names -> names
    in
    let policies =
      match policy_names with [] -> Registry.names | names -> names
    in
    let cells =
      List.concat_map
        (fun w ->
          List.map
            (fun p ->
              {
                Protocol.config;
                workload = w;
                policy = p;
                audit;
                sample = sample_spec;
              })
            policies)
        workloads
    in
    with_client socket (fun c ->
        let results, stats =
          Client.submit ~cache:(not no_cache) c cells
        in
        if not quiet then print_batch_stats stats;
        print_cell_errors cells results;
        if json then
          print_endline
            (Json.to_string
               (Levioso_uarch.Summary.runs
                  (Array.to_list
                     (Array.map
                        (fun (r : Client.result_cell) -> r.Client.summary)
                        results))))
        else begin
          let n = List.length policies in
          let baseline row =
            List.find_opt (fun (p, _) -> p = "unsafe") row
            |> Option.map (fun (_, c) -> c)
          in
          let header =
            "workload" :: List.map (fun p -> p ^ " (cyc)") policies
          in
          let body =
            List.mapi
              (fun i w ->
                let row =
                  List.mapi
                    (fun j p ->
                      (p, cycles_of_summary results.((i * n) + j).Client.summary))
                    policies
                in
                let base = baseline row in
                w
                :: List.map
                     (fun (_, c) ->
                       match base with
                       | Some b when b > 0 && b <> c ->
                         Printf.sprintf "%d (%+.1f%%)" c
                           (Stats.overhead_pct ~baseline:(float_of_int b)
                              (float_of_int c))
                       | Some _ | None -> string_of_int c)
                     row)
              workloads
          in
          print_endline (Report.table ~header ~rows:body)
        end)

(* ---------- stress ---------- *)

let stress socket cells_n workload policy use_cache =
  if cells_n < 1 then `Error (false, "--cells expects a positive integer")
  else
    (* distinct rob sizes make every cell real scheduled work instead of
       one simulation plus (N-1) merges *)
    let cells =
      List.init cells_n (fun i ->
          {
            Protocol.config =
              { Config.default with Config.rob_size = 64 + i };
            workload;
            policy;
            audit = false;
            sample = None;
          })
    in
    with_client socket (fun c ->
        let walls = ref [] in
        let t0 = Unix.gettimeofday () in
        let _, stats =
          Client.submit ~cache:use_cache
            ~on_result:(fun _ rc ->
              if rc.Client.error = None then
                walls := rc.Client.wall_s :: !walls)
            c cells
        in
        let wall = Unix.gettimeofday () -. t0 in
        Printf.printf
          "stress: %d cells (%d simulated, %d cached%s) in %.2fs — %.1f \
           cells/s\n"
          cells_n stats.Protocol.simulated stats.Protocol.cached
          (if stats.Protocol.failed > 0 then
             Printf.sprintf ", %d failed" stats.Protocol.failed
           else "")
          wall
          (float_of_int cells_n /. wall);
        if !walls <> [] then begin
          let window = Span.Window.create (List.length !walls) in
          List.iter (Span.Window.observe window) !walls;
          let pct q = fmt_dur (Option.get (Span.Window.percentile window q)) in
          Printf.printf "  cell wall: p50 %s, p95 %s, p99 %s\n" (pct 0.5)
            (pct 0.95) (pct 0.99)
        end)

(* ---------- one-frame commands ---------- *)

let list_cmd socket =
  with_client socket (fun c ->
      let workloads, policies = Client.list c in
      print_endline "workloads:";
      List.iter
        (fun (n, d) -> Printf.printf "  %-16s %s\n" n d)
        workloads;
      print_endline "policies:";
      List.iter (fun p -> Printf.printf "  %s\n" p) policies)

let ping_cmd socket =
  with_client socket (fun c ->
      Client.ping c;
      Printf.printf "pong (pool %d, cache %s)\n" (Client.pool c)
        (if Client.server_cache c then "on" else "off"))

let stats_cmd socket json =
  with_client socket (fun c ->
      let j = Client.stats c in
      if json then print_endline (Json.to_string j)
      else print_string (render_stats socket j))

(* ---------- top ---------- *)

let top_cmd socket interval iterations =
  if interval <= 0. then `Error (false, "--interval expects a positive number")
  else if iterations < 0 then
    `Error (false, "--iterations expects a non-negative integer")
  else
    with_client socket (fun c ->
        (* in-place redraw only when talking to a terminal, so piping
           `top --iterations 1` stays clean text *)
        let ansi = Unix.isatty Unix.stdout in
        let rec loop i =
          let j = Client.stats c in
          if ansi then print_string "\027[2J\027[H";
          print_string (render_stats socket j);
          flush stdout;
          if iterations = 0 || i < iterations then begin
            Unix.sleepf interval;
            loop (i + 1)
          end
        in
        loop 1)

let prune_cmd socket days =
  if days < 0 then `Error (false, "--days expects a non-negative integer")
  else
    with_client socket (fun c ->
        Printf.printf "pruned %d entries\n" (Client.prune c ~max_age_days:days))

let shutdown_cmd socket =
  with_client socket (fun c ->
      Client.shutdown c;
      print_endline "daemon stopped")

(* ---------- history ---------- *)

(* Curated default columns: the operational signals someone debugging a
   daemon wants first.  --fields overrides with any recorded field. *)
let history_default_fields =
  [
    "uptime_s"; "queue_depth"; "clients"; "requests"; "errors";
    "requests_per_s"; "cells_per_s"; "cache_hit_share"; "total_p50_s";
    "total_p99_s"; "gc_heap_words";
  ]

let render_history records fields =
  let samples = Levioso_telemetry.Tsdb.samples records in
  match samples with
  | [] -> print_endline "no samples in the requested range"
  | first :: _ ->
    let t0 = first.Tsdb.ts in
    let present name =
      List.exists (fun s -> List.mem_assoc name s.Tsdb.fields) samples
    in
    let columns =
      match fields with
      | Some names -> names  (* explicit request: keep even when absent *)
      | None -> List.filter present history_default_fields
    in
    let header = "t" :: columns in
    let rows =
      List.map
        (fun s ->
          Printf.sprintf "+%.1fs" (s.Tsdb.ts -. t0)
          :: List.map
               (fun name ->
                 match List.assoc_opt name s.Tsdb.fields with
                 | Some v -> Printf.sprintf "%g" v
                 | None -> "-")
               columns)
        samples
    in
    print_string (Report.table ~header ~rows);
    List.iter
      (function
        | Tsdb.Alert a ->
          Printf.printf "%s t+%.1fs: %s\n"
            (if a.Tsdb.firing then "alert FIRING " else "alert resolved")
            (a.Tsdb.a_ts -. t0) a.Tsdb.rule
        | Tsdb.Sample _ -> ())
      records

let history_cmd socket dir since until last json fields =
  if last < 0 then `Error (false, "--last expects a non-negative integer")
  else
    let fields =
      Option.map
        (fun csv ->
          String.split_on_char ',' csv
          |> List.map String.trim
          |> List.filter (fun s -> s <> ""))
        fields
    in
    let render records =
      if json then print_endline (Json.to_string (Protocol.history_doc records))
      else render_history records fields
    in
    match dir with
    | Some dir -> (
      (* offline: read the segments directly, no daemon required *)
      match Tsdb.read_dir ?since ?until dir with
      | Error msg -> `Error (false, msg)
      | Ok records ->
        let records =
          if last > 0 then
            let n = List.length records in
            List.filteri (fun i _ -> i >= n - last) records
          else records
        in
        render records;
        `Ok ())
    | None ->
      with_client socket (fun c ->
          let doc = Client.history ?since ?until ~last c in
          if json then print_endline (Json.to_string doc)
          else
            match Protocol.history_records doc with
            | Ok records -> render_history records fields
            | Error msg -> raise (Client.Server_error msg))

(* ---------- cmdliner ---------- *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "levioso.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Simulation domains in the daemon's pool; 0 (the default) uses \
           every core.")

let queue_max_arg =
  Arg.(
    value & opt int 0
    & info [ "queue-max" ] ~docv:"N"
        ~doc:
          "Bound the work queue at $(docv) pending cells: submissions \
           beyond it block (backpressure).  0 (the default) is unbounded.")

let cache_dir_arg =
  Arg.(
    value
    & opt string (Filename.concat "bench" ".cache")
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Sharded result store shared by every client of this daemon \
           (created, and any flat legacy entries migrated, on start).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Run without a result store (always simulate).")

let metrics_serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Periodically write daemon gauges (queue depth, clients, cells \
           simulated/cached/merged) in OpenMetrics text format to $(docv).")

let progress_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "progress-file" ] ~docv:"FILE"
        ~doc:"Periodically write a machine-readable progress snapshot.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the event log.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "On shutdown, write every request's spans as Chrome trace_event \
           JSON (loadable in Perfetto: one track per trace id, submit → \
           cell → cache_probe/replay/simulate nesting) to $(docv).")

let access_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one schema-tagged JSONL record per served cell to $(docv): \
           trace/request identity plus per-stage durations (queue, exec, \
           cache_probe, replay, simulate, serialize) and total_s.")

let history_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history-out" ] ~docv:"DIR"
        ~doc:
          "Continuous telemetry: sample the daemon's gauges, latency \
           percentiles, histogram mass and GC counters every \
           --history-interval seconds into an append-only on-disk \
           time-series under $(docv) (query with `levioso_serve history`, \
           render with `levioso_report --dashboard`).  Also arms the \
           flight recorder: SIGUSR1, a deadlock diagnostic or an uncaught \
           server error dumps recent samples and access records to a \
           post-mortem JSON in $(docv).")

let history_interval_arg =
  Arg.(
    value & opt float 5.0
    & info [ "history-interval" ] ~docv:"SECS"
        ~doc:"Seconds between history samples (default 5).")

let alerts_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "alerts" ] ~docv:"FILE"
        ~doc:
          "Alert rules evaluated at every history sample, one per line: \
           `metric OP threshold [for DURs]`, e.g. `total_p99_ms > 500 for \
           30s` or `queue_depth >= 100`.  Transitions are logged, recorded \
           in the time-series and exported as the levioso_alerts_firing \
           gauge.  Requires --history-out.")

let serve_cmd =
  let doc = "run the simulation daemon (blocks until a shutdown request)" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const serve $ socket_arg $ jobs_arg $ queue_max_arg $ cache_dir_arg
       $ no_cache_arg $ metrics_serve_arg $ progress_file_arg $ trace_out_arg
       $ access_log_arg $ history_out_arg $ history_interval_arg $ alerts_arg
       $ quiet_arg))

let workloads_arg =
  let doc =
    "Workload to submit (repeatable; default: the whole suite). Known: "
    ^ String.concat ", " (Catalog.workload_names ())
  in
  Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let policies_arg =
  let doc =
    "Defense policy (repeatable; default: all). Known: "
    ^ String.concat ", " Registry.names
  in
  Arg.(value & opt_all string [] & info [ "p"; "policy" ] ~docv:"NAME" ~doc)

let rob_arg =
  Arg.(
    value
    & opt int Config.default.Config.rob_size
    & info [ "rob" ] ~docv:"N" ~doc:"Reorder-buffer size.")

let predictor_arg =
  let predictor_conv =
    Arg.enum
      [
        ("always-taken", Config.Always_taken);
        ("bimodal", Config.Bimodal);
        ("gshare", Config.Gshare);
        ("tage", Config.Tage);
      ]
  in
  Arg.(
    value
    & opt predictor_conv Config.default.Config.predictor
    & info [ "predictor" ] ~docv:"KIND"
        ~doc:"Branch predictor: always-taken, bimodal, gshare or tage.")

let budget_arg =
  Arg.(
    value
    & opt int Config.default.Config.depset_budget
    & info [ "budget" ] ~docv:"K" ~doc:"Dependency-set hardware budget.")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:"Record restriction provenance (disables caching).")

let sample_arg =
  Arg.(
    value & opt string "off"
    & info [ "sample" ] ~docv:"N:W[:P]"
        ~doc:
          "Two-tier sampled simulation (see levioso_sim --sample); \
           estimates never enter the result store.")

let submit_no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Bypass the daemon's result store for this batch.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the summaries as JSON — the same artifact a local \
           levioso_sim --json run of the matrix produces.")

let submit_cmd =
  let doc = "submit a workload x policy matrix and stream the results" in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      ret
        (const submit $ socket_arg $ workloads_arg $ policies_arg $ rob_arg
       $ predictor_arg $ budget_arg $ audit_arg $ sample_arg
       $ submit_no_cache_arg $ json_arg $ quiet_arg))

let cells_arg =
  Arg.(
    value & opt int 200
    & info [ "cells" ] ~docv:"N"
        ~doc:"Distinct cells to submit (reorder-buffer sweep).")

let stress_workload_arg =
  Arg.(
    value
    & opt string (List.hd Suite.names)
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to sweep.")

let stress_policy_arg =
  Arg.(
    value & opt string "unsafe"
    & info [ "p"; "policy" ] ~docv:"NAME" ~doc:"Policy to sweep.")

let stress_cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Let the sweep use the daemon's result store (default: bypass it \
           so every cell is real scheduled work).")

let stress_cmd =
  let doc = "queued-load exercise: one large batch of distinct cells" in
  Cmd.v
    (Cmd.info "stress" ~doc)
    Term.(
      ret
        (const stress $ socket_arg $ cells_arg $ stress_workload_arg
       $ stress_policy_arg $ stress_cache_arg))

let list_sub =
  Cmd.v
    (Cmd.info "list" ~doc:"list the daemon's workloads and policies")
    Term.(ret (const list_cmd $ socket_arg))

let ping_sub =
  Cmd.v
    (Cmd.info "ping" ~doc:"check daemon liveness")
    Term.(ret (const ping_cmd $ socket_arg))

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the raw schema-tagged snapshot instead of the \
           human-readable view.")

let stats_sub =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"print the daemon's queue/throughput/latency snapshot")
    Term.(ret (const stats_cmd $ socket_arg $ stats_json_arg))

let interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SECS"
        ~doc:"Seconds between refreshes (default 2).")

let iterations_arg =
  Arg.(
    value & opt int 0
    & info [ "iterations" ] ~docv:"N"
        ~doc:
          "Stop after $(docv) refreshes; 0 (the default) runs until \
           interrupted.")

let top_sub =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "live per-stage latency view (p50/p95/p99 over a sliding window, \
          redrawn in place on a terminal)")
    Term.(ret (const top_cmd $ socket_arg $ interval_arg $ iterations_arg))

let days_arg =
  Arg.(
    value & opt int 30
    & info [ "days" ] ~docv:"N"
        ~doc:"Delete entries older than $(docv) days (default 30).")

let prune_sub =
  Cmd.v
    (Cmd.info "prune" ~doc:"delete stale entries from the daemon's store")
    Term.(ret (const prune_cmd $ socket_arg $ days_arg))

let shutdown_sub =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"drain outstanding work and stop the daemon")
    Term.(ret (const shutdown_cmd $ socket_arg))

let history_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Read the time-series segments in $(docv) directly instead of \
           querying a live daemon — works after the daemon exited.")

let since_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "since" ] ~docv:"TS"
        ~doc:"Keep records with timestamp >= $(docv) (Unix epoch seconds).")

let until_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "until" ] ~docv:"TS"
        ~doc:"Keep records with timestamp <= $(docv) (Unix epoch seconds).")

let last_arg =
  Arg.(
    value & opt int 0
    & info [ "last" ] ~docv:"N"
        ~doc:"Keep only the newest $(docv) records; 0 (the default) = all.")

let history_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the schema-tagged levioso-history document instead of the \
           aligned-column view.")

let fields_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fields" ] ~docv:"A,B,C"
        ~doc:
          "Comma-separated field columns to show (default: a curated \
           operational set; any field recorded in the samples works, e.g. \
           exec_p95_s or gc_minor_collections).")

let history_sub =
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "query the daemon's recorded telemetry time-series (or read \
          segment files directly with --dir)")
    Term.(
      ret
        (const history_cmd $ socket_arg $ history_dir_arg $ since_arg
       $ until_arg $ last_arg $ history_json_arg $ fields_arg))

let cmd =
  let doc = "levioso simulation-as-a-service daemon and client" in
  Cmd.group
    (Cmd.info "levioso_serve" ~doc)
    [
      serve_cmd;
      submit_cmd;
      stress_cmd;
      list_sub;
      ping_sub;
      stats_sub;
      top_sub;
      history_sub;
      prune_sub;
      shutdown_sub;
    ]

let () = exit (Cmd.eval cmd)
