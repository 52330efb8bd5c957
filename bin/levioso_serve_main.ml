(* levioso_serve: simulation as a service.

   A long-lived daemon owns one domain pool and one sharded result
   store; clients submit batched (workload x policy x config) matrices
   over a Unix-domain socket and stream results back in submission
   order, bit-identical to a local serial run.  `levioso_sim --remote`
   and `bench --remote` are the matrix clients; this binary runs the
   daemon and its operational commands.

   Examples:
     levioso_serve serve --socket /tmp/lev.sock -j 8 &
     levioso_serve list --socket /tmp/lev.sock
     levioso_sim --remote /tmp/lev.sock -w stream -p levioso --json
     levioso_serve stress --socket /tmp/lev.sock --cells 200
     levioso_serve shutdown --socket /tmp/lev.sock *)

module Config = Levioso_uarch.Config
module Run_cache = Levioso_uarch.Run_cache
module Suite = Levioso_workload.Suite
module Workload = Levioso_workload.Workload
module Json = Levioso_telemetry.Json
module Monitor = Levioso_telemetry.Monitor
module Span = Levioso_telemetry.Span
module Tsdb = Levioso_telemetry.Tsdb
module Report = Levioso_util.Report
module Protocol = Levioso_serve.Protocol
module Client = Levioso_serve.Client
module Server = Levioso_serve.Server
module Cli = Levioso_cli.Cli

(* A runtime failure — a busy socket or an unwritable output file for
   the daemon; no daemon on the socket, a daemon-side error or a
   malformed reply for a client — exits 1, so a script can tell it from
   a bad flag, Cmdliner's 124. *)
let runtime_error msg = Cli.runtime_error ~prog:"levioso_serve" msg

(* ---------- serve ---------- *)

let serve socket jobs queue_max cache_dir no_cache metrics_file trace_out
    access_log_path history_out history_interval quiet =
  let history =
    Option.map
      (fun dir ->
        { Server.history_dir = dir; history_interval_s = history_interval })
      history_out
  in
  let cache =
    if no_cache then None else Some (Run_cache.create ~dir:cache_dir ())
  in
  let monitor =
    Option.map
      (fun metrics_path ->
        Monitor.create ~metrics_path ~label:"levioso_serve" ())
      metrics_file
  in
  let log =
    if quiet then None
    else
      Some
        (fun msg ->
          Printf.eprintf "[levioso_serve %.3f] %s\n%!"
            (Unix.gettimeofday ()) msg)
  in
  let spans = Option.map (fun _ -> Span.create ()) trace_out in
  match Option.map open_out access_log_path with
  | exception Sys_error msg -> runtime_error msg
  | access_log -> (
    let close_access () =
      Option.iter (fun oc -> try close_out oc with Sys_error _ -> ()) access_log
    in
    match
      Server.run
        {
          Server.socket_path = socket;
          pool_size = jobs;
          queue_max = (if queue_max = 0 then None else Some queue_max);
          cache;
          monitor;
          log;
          spans;
          access_log;
          history;
        };
      match (spans, trace_out) with
      | Some sp, Some path ->
        let oc = open_out path in
        Span.write_chrome oc (Span.drain sp);
        close_out oc
      | _ -> ()
    with
    | () ->
      close_access ();
      `Ok ()
    | exception (Failure msg | Sys_error msg) ->
      close_access ();
      runtime_error msg
    | exception Unix.Unix_error (e, fn, arg) ->
      close_access ();
      runtime_error
        (Printf.sprintf "%s: %s(%s): %s" socket fn arg (Unix.error_message e)))

(* ---------- client-side helpers ---------- *)

let with_client socket f =
  match Client.connect socket with
  | exception Client.Server_error msg -> runtime_error msg
  | c -> (
    match Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c) with
    | v -> `Ok v
    | exception Client.Server_error msg -> runtime_error msg)

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
  let int k o = Json.(get to_int_exn) k o in
  let gauge k = int_of_float (Json.(get (get to_float_exn k)) "gauges" j) in
  (* an empty window has no percentiles *)
  let dur k s =
    Json.get
      (function Json.Null -> "-" | v -> fmt_dur (Json.to_float_exn v))
      k s
  in
  let stage name s =
    [
      name; string_of_int (int "seen" s); string_of_int (int "window" s);
      dur "p50_s" s; dur "p95_s" s; dur "p99_s" s;
    ]
  in
  let render j =
    let buf = Buffer.create 512 in
    Printf.bprintf buf
      "levioso_serve @ %s — up %s, proto %d, pool %d, cache %s\n" socket
      (fmt_uptime (Json.(get to_float_exn) "uptime_s" j))
      (int "proto" j) (int "pool" j)
      (if Json.member "cache_dir" j = Some Json.Null then "off" else "on");
    Printf.bprintf buf
      "requests %d   errors %d   clients %d   queue %d   inflight %d\n"
      (int "requests" j) (int "errors" j) (gauge "serve_clients")
      (gauge "serve_queue_depth")
      (gauge "serve_inflight");
    Printf.bprintf buf "cells: %d simulated, %d cached\n\n"
      (gauge "serve_cells_simulated")
      (gauge "serve_cells_cached");
    let header = [ "stage"; "seen"; "window"; "p50"; "p95"; "p99" ] in
    Buffer.add_string buf
      (Report.table ~header ~rows:(Json.(get (fields stage)) "latency" j));
    Buffer.add_char buf '\n';
    Buffer.contents buf
  in
  match Json.decoded render j with
  | Ok text -> text
  | Error msg -> raise (Client.Server_error ("malformed stats frame: " ^ msg))

(* ---------- stress ---------- *)

let stress socket cells_n (workload : Workload.t) policy use_cache =
  let cells = Client.sweep ~workload:workload.Workload.name ~policy cells_n in
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
        let sorted = Array.of_list !walls in
        Array.sort Float.compare sorted;
        let pct q = fmt_dur (Option.get (Span.Latency.nearest_rank sorted q)) in
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

let render_history samples fields =
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
    print_string (Report.table ~header ~rows)

let history_cmd socket dir since until last json fields =
  let fields =
    Option.map
      (fun csv ->
        String.split_on_char ',' csv
        |> List.map String.trim
        |> List.filter (fun s -> s <> ""))
      fields
  in
  let render samples =
    if json then print_endline (Json.to_string (Tsdb.history_doc samples))
    else render_history samples fields
  in
  match dir with
  | Some dir -> (
    (* offline: read the segments directly, no daemon required *)
    match Tsdb.read_dir ?since ?until ~last dir with
    | Error msg -> runtime_error msg
    | Ok samples -> `Ok (render samples))
  | None ->
    (* live: the same read, in the directory the daemon names *)
    with_client socket (fun c -> render (Client.history ?since ?until ~last c))

(* ---------- cmdliner ---------- *)

open Cmdliner

let runtime_failure =
  "on a runtime failure: no daemon answers on the socket, the daemon \
   reports an error, or its reply is malformed"

let client_exits = Cli.exits ~doc:(runtime_failure ^ ".")

let socket_arg =
  Arg.(
    value
    & opt string "levioso.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let jobs_arg =
  Cli.jobs
    ~doc:
      "Simulation domains in the daemon's pool; 0 (the default) uses every \
       core."

let queue_max_arg =
  Arg.(
    value & opt Cli.non_negative 0
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
           (created at start-up).")

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
           simulated/cached) in OpenMetrics text format to $(docv).")

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
           render with `levioso_report --dashboard`).")

let history_interval_arg =
  Arg.(
    value & opt Cli.positive_float 5.0
    & info [ "history-interval" ] ~docv:"SECS"
        ~doc:"Seconds between history samples (default 5).")

let serve_cmd =
  let doc = "run the simulation daemon (blocks until a shutdown request)" in
  Cmd.v
    (Cmd.info "serve" ~doc
       ~exits:
         (Cli.exits
            ~doc:
              "when the socket is served by a live daemon or cannot be \
               bound, or an output file cannot be written."))
    Term.(
      ret
        (const serve $ socket_arg $ jobs_arg $ queue_max_arg $ cache_dir_arg
       $ no_cache_arg $ metrics_serve_arg $ trace_out_arg $ access_log_arg
       $ history_out_arg $ history_interval_arg $ quiet_arg))

let cells_arg =
  let in_range n =
    if n >= 1 && n <= Client.max_sweep then Ok ()
    else
      Error
        (Printf.sprintf
           "must be in 1..%d (one cell per reorder-buffer size from 64 to %d)"
           Client.max_sweep Config.largest.Config.rob_size)
  in
  Arg.(
    value
    & opt (Cli.checked_int in_range) 200
    & info [ "cells" ] ~docv:"N"
        ~doc:
          "Distinct cells to submit (reorder-buffer sweep: cell i runs with \
           a ROB of 64 + i entries).")

let stress_workload_arg =
  Arg.(
    value
    & opt Cli.workload (List.hd Suite.all)
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to sweep.")

let stress_policy_arg =
  Arg.(
    value & opt Cli.policy "unsafe"
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
    (Cmd.info "stress" ~doc ~exits:client_exits)
    Term.(
      ret
        (const stress $ socket_arg $ cells_arg $ stress_workload_arg
       $ stress_policy_arg $ stress_cache_arg))

let list_sub =
  Cmd.v
    (Cmd.info "list" ~exits:client_exits
       ~doc:"list the daemon's workloads and policies")
    Term.(ret (const list_cmd $ socket_arg))

let ping_sub =
  Cmd.v
    (Cmd.info "ping" ~exits:client_exits ~doc:"check daemon liveness")
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
    (Cmd.info "stats" ~exits:client_exits
       ~doc:"print the daemon's queue/throughput/latency snapshot")
    Term.(ret (const stats_cmd $ socket_arg $ stats_json_arg))

let interval_arg =
  Arg.(
    value & opt Cli.positive_float 2.0
    & info [ "interval" ] ~docv:"SECS"
        ~doc:"Seconds between refreshes (default 2).")

let iterations_arg =
  Arg.(
    value & opt Cli.non_negative 0
    & info [ "iterations" ] ~docv:"N"
        ~doc:
          "Stop after $(docv) refreshes; 0 (the default) runs until \
           interrupted.")

let top_sub =
  Cmd.v
    (Cmd.info "top" ~exits:client_exits
       ~doc:
         "live per-stage latency view (p50/p95/p99 over a sliding window, \
          redrawn in place on a terminal)")
    Term.(ret (const top_cmd $ socket_arg $ interval_arg $ iterations_arg))

let days_arg =
  Arg.(
    value & opt Cli.non_negative 30
    & info [ "days" ] ~docv:"N"
        ~doc:"Delete entries older than $(docv) days (default 30).")

let prune_sub =
  Cmd.v
    (Cmd.info "prune" ~exits:client_exits
       ~doc:"delete stale entries from the store directory the daemon names")
    Term.(ret (const prune_cmd $ socket_arg $ days_arg))

let shutdown_sub =
  Cmd.v
    (Cmd.info "shutdown" ~exits:client_exits
       ~doc:"drain outstanding work and stop the daemon")
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
    value & opt Cli.non_negative 0
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
    (Cmd.info "history" ~exits:client_exits
       ~doc:
         "read the telemetry time-series in the directory the daemon names \
          (or, with --dir, in any segment directory)")
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
