module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Monitor = Levioso_telemetry.Monitor
module Span = Levioso_telemetry.Span
module Tsdb = Levioso_telemetry.Tsdb
module Alerts = Levioso_telemetry.Alerts
module Flight = Levioso_telemetry.Flight
module Run_cache = Levioso_uarch.Run_cache
module Pipeline = Levioso_uarch.Pipeline
module Parallel = Levioso_util.Parallel

type history_opts = {
  history_dir : string;
  history_interval_s : float;
  alert_rules : Alerts.rule list;
}

type opts = {
  socket_path : string;
  pool_size : int;
  queue_max : int option;
  cache : Run_cache.t option;
  monitor : Monitor.t option;
  log : (string -> unit) option;
  spans : Span.t option;
  access_log : out_channel option;
  history : history_opts option;
}

(* The latency-accounting stages every cell passes through, in path
   order.  Sliding windows (exact p50/p95/p99 for the stats frame and
   `top`) and log-scale histograms (OpenMetrics) are always on — they
   are a handful of float writes per cell and never touch results;
   span collection and the access log stay Option-gated. *)
let lat_stages = [ "queue"; "exec"; "serialize"; "total" ]

let window_capacity = 512

(* Continuous-telemetry state, allocated only under --history-out.  A
   daemon without it constructs none of this: the sampler thread, its
   clock reads and the flight-recorder rings simply do not exist, which
   is the zero-effect guarantee. *)
type hist = {
  h_dir : string;
  h_interval_s : float;
  tsdb : Tsdb.t;
  halerts : Alerts.t;
  flight : Flight.t;
  (* reason for a requested post-mortem dump (SIGUSR1 handler writes,
     sampler thread drains — a signal handler must not take locks) *)
  dump_req : string option Atomic.t;
  h_stop : bool Atomic.t;
  (* previous tick's (ts, requests, errors, simulated, cached) for rates *)
  mutable h_prev : (float * float * float * float * float) option;
}

type t = {
  opts : opts;
  listener : Unix.file_descr;
  pool : Parallel.t;
  running : bool Atomic.t;
  started : float;
  (* best-effort memo of cells currently being computed, so N clients
     submitting the same matrix concurrently pay for one simulation of
     each cell instead of N (the disk store only helps after a cell
     finishes) *)
  inflight : (string, Engine.outcome Parallel.future) Hashtbl.t;
  inflight_mu : Mutex.t;
  clients : (Thread.t * Unix.file_descr) list ref;
  clients_mu : Mutex.t;
  next_conn : int Atomic.t;
  (* lifetime counters for the stats frame / OpenMetrics gauges *)
  simulated : int Atomic.t;
  cached : int Atomic.t;
  merged : int Atomic.t;
  requests : int Atomic.t;
  errors : int Atomic.t;
  (* per-stage latency accounting: sliding windows for percentiles,
     fixed log-scale histograms for OpenMetrics *)
  lat : (string * Span.Window.w) list;
  lat_hist : (string * Span.Hist.h) list;
  access_mu : Mutex.t;
  history : hist option;
}

let log t msg = match t.opts.log with Some f -> f msg | None -> ()

let gauges t =
  [
    ("serve_queue_depth", "Tasks waiting for a pool worker.",
     float_of_int (Parallel.queue_depth t.pool));
    ("serve_inflight", "Cells currently being computed.",
     float_of_int
       (Mutex.protect t.inflight_mu (fun () -> Hashtbl.length t.inflight)));
    ("serve_clients", "Connected clients.",
     float_of_int
       (Mutex.protect t.clients_mu (fun () -> List.length !(t.clients))));
    ("serve_cells_simulated", "Cells simulated since daemon start.",
     float_of_int (Atomic.get t.simulated));
    ("serve_cells_cached", "Cells replayed from the shard store.",
     float_of_int (Atomic.get t.cached));
    ("serve_cells_merged", "Cells merged onto a concurrent computation.",
     float_of_int (Atomic.get t.merged));
    ("serve_requests", "Requests handled since daemon start.",
     float_of_int (Atomic.get t.requests));
    ("serve_errors", "Cells and frames that failed since daemon start.",
     float_of_int (Atomic.get t.errors));
  ]

let publish_gauges t =
  match t.opts.monitor with
  | None -> ()
  | Some m ->
    List.iter (fun (n, help, v) -> Monitor.set_gauge m ~help n v) (gauges t);
    List.iter
      (fun (stage, h) ->
        if Span.Hist.count h > 0 then
          Monitor.set_histogram m
            ~help:(Printf.sprintf "Per-cell %s latency, seconds." stage)
            (Printf.sprintf "serve_%s_seconds" stage)
            ~buckets:(Span.Hist.buckets h) ~sum:(Span.Hist.sum h)
            ~count:(Span.Hist.count h))
      t.lat_hist

let observe_stage t stage v =
  (match List.assoc_opt stage t.lat with
  | Some w -> Span.Window.observe w v
  | None -> ());
  match List.assoc_opt stage t.lat_hist with
  | Some h -> Span.Hist.observe h v
  | None -> ()

let latency_json t =
  Json.Obj
    (List.map
       (fun (stage, w) ->
         let p q =
           match Span.Window.percentile w q with
           | Some v -> Json.float v
           | None -> Json.Null
         in
         ( stage,
           Json.Obj
             [
               ("seen", Json.Int (Span.Window.seen w));
               ("window", Json.Int (Span.Window.count w));
               ("p50_s", p 0.5);
               ("p95_s", p 0.95);
               ("p99_s", p 0.99);
             ] ))
       t.lat)

let stats_snapshot t =
  Schema.tag
    [
      ("kind", Json.String "levioso-serve-stats");
      ("proto", Json.Int Protocol.version);
      ("pool", Json.Int (Parallel.size t.pool));
      ( "queue_max",
        match t.opts.queue_max with Some n -> Json.Int n | None -> Json.Null );
      ("cache", Json.Bool (t.opts.cache <> None));
      ("uptime_s", Json.float (Unix.gettimeofday () -. t.started));
      ("requests", Json.Int (Atomic.get t.requests));
      ("errors", Json.Int (Atomic.get t.errors));
      ( "gauges",
        Json.Obj (List.map (fun (n, _, v) -> (n, Json.float v)) (gauges t)) );
      ("latency", latency_json t);
    ]

(* --- continuous telemetry (--history-out) ------------------------------

   One sampler thread wakes every interval, reads the clock once,
   assembles the daemon's whole observable state into flat float fields
   and appends a tsdb sample.  Field names deliberately match what the
   alert language and the dashboard read: gauges lose their "serve_"
   prefix (queue_depth, requests, ...), latency percentiles are
   "<stage>_p50_s" etc. so a "total_p99_ms > 500" rule resolves via the
   Alerts _ms fallback. *)

let history_fields t ~ts =
  let gauge_fields =
    List.map
      (fun (name, _, v) ->
        let name =
          if String.length name > 6 && String.sub name 0 6 = "serve_" then
            String.sub name 6 (String.length name - 6)
          else name
        in
        (name, v))
      (gauges t)
  in
  let lat_fields =
    List.concat_map
      (fun (stage, w) ->
        let p q suffix =
          match Span.Window.percentile w q with
          | Some v -> [ (stage ^ suffix, v) ]
          | None -> []
        in
        [ (stage ^ "_seen", float_of_int (Span.Window.seen w)) ]
        @ p 0.5 "_p50_s" @ p 0.95 "_p95_s" @ p 0.99 "_p99_s")
      t.lat
  in
  let hist_fields =
    List.concat_map
      (fun (stage, h) ->
        [
          (stage ^ "_hist_count", float_of_int (Span.Hist.count h));
          (stage ^ "_hist_sum_s", Span.Hist.sum h);
        ]
        (* full cumulative buckets for the end-to-end stage only: 4
           stages x ~25 buckets per sample would triple record size for
           curves nobody alerts on *)
        @
        if stage = "total" then
          List.filter_map
            (fun (le, n) ->
              if n > 0 then
                Some (Printf.sprintf "total_le_%g" le, float_of_int n)
              else None)
            (Span.Hist.buckets h)
        else [])
      t.lat_hist
  in
  let gc = Gc.quick_stat () in
  let gc_fields =
    [
      ("gc_heap_words", float_of_int gc.Gc.heap_words);
      ("gc_top_heap_words", float_of_int gc.Gc.top_heap_words);
      ("gc_minor_collections", float_of_int gc.Gc.minor_collections);
      ("gc_major_collections", float_of_int gc.Gc.major_collections);
      ("gc_minor_words", gc.Gc.minor_words);
      ("gc_promoted_words", gc.Gc.promoted_words);
    ]
  in
  (("uptime_s", ts -. t.started) :: gauge_fields) @ lat_fields @ hist_fields
  @ gc_fields

let history_rates h ~ts fields =
  let get name = Option.value ~default:0. (List.assoc_opt name fields) in
  let requests = get "requests" and errors = get "errors" in
  let simulated = get "cells_simulated" and cached = get "cells_cached" in
  let rates =
    match h.h_prev with
    | Some (pts, preq, perr, psim, pcache) when ts > pts ->
      let dt = ts -. pts in
      let sim_d = simulated -. psim and cache_d = cached -. pcache in
      let served = sim_d +. cache_d in
      [
        ("requests_per_s", (requests -. preq) /. dt);
        ("errors_per_s", (errors -. perr) /. dt);
        ("cells_per_s", served /. dt);
        ("cache_hit_share", if served > 0. then cache_d /. served else 0.);
      ]
    | _ -> []
  in
  h.h_prev <- Some (ts, requests, errors, simulated, cached);
  rates

let sample_history t h =
  let ts = Tsdb.now h.tsdb in
  let fields = history_fields t ~ts in
  let fields = fields @ history_rates h ~ts fields in
  let s = Tsdb.append ~ts h.tsdb fields in
  Flight.add_sample h.flight s;
  let lookup name = List.assoc_opt name s.Tsdb.fields in
  let transitions = Alerts.eval h.halerts ~now:ts ~lookup in
  List.iter
    (fun { Alerts.rule; firing; value } ->
      log t
        (if firing then
           Printf.sprintf "alert FIRING: %s (value %g)" rule.Alerts.name value
         else Printf.sprintf "alert resolved: %s" rule.Alerts.name);
      Tsdb.append_alert h.tsdb ~ts ~rule:rule.Alerts.name ~firing)
    transitions;
  match t.opts.monitor with
  | Some m ->
    Monitor.set_gauge m ~help:"Alert rules currently firing." "alerts_firing"
      (float_of_int (Alerts.firing h.halerts))
  | None -> ()

(* Post-mortem dump: flight-recorder rings to disk.  Called from the
   sampler thread (SIGUSR1 flag), a client thread (uncaught request
   error) or the submit path (deadlock diagnostic); Flight and Tsdb are
   mutex-guarded so any thread may dump. *)
let postmortem t ~reason =
  match t.history with
  | None -> ()
  | Some h -> (
    match
      Flight.write h.flight ~dir:h.h_dir ~reason ~ts:(Tsdb.now h.tsdb)
    with
    | Ok path -> log t (Printf.sprintf "post-mortem (%s) -> %s" reason path)
    | Error e -> log t (Printf.sprintf "post-mortem (%s) failed: %s" reason e))

let sampler_loop t h =
  sample_history t h;
  let next = ref (Unix.gettimeofday () +. h.h_interval_s) in
  let slice = Float.min 0.05 (Float.max 0.005 (h.h_interval_s /. 4.)) in
  while not (Atomic.get h.h_stop) do
    (match Atomic.exchange h.dump_req None with
    | Some reason -> postmortem t ~reason
    | None -> ());
    let now = Unix.gettimeofday () in
    if now >= !next then begin
      sample_history t h;
      (* re-anchor on the grid so a slow sample slips the phase instead
         of bunching the next ticks *)
      next := Float.max (!next +. h.h_interval_s) (now +. (h.h_interval_s /. 2.))
    end;
    Thread.delay slice
  done;
  (match Atomic.exchange h.dump_req None with
  | Some reason -> postmortem t ~reason
  | None -> ());
  (* final sample so even a short-lived daemon leaves >= 2 points *)
  sample_history t h

(* The in-flight memo key: everything that determines the result bits,
   plus the cache flag — a --no-cache submission must not merge onto a
   cache-enabled computation that could replay from the shard store. *)
let cell_key ~use_cache (c : Protocol.cell) =
  String.concat "\x00"
    [
      string_of_bool use_cache;
      Run_cache.config_key c.Protocol.config;
      c.Protocol.workload;
      c.Protocol.policy;
      string_of_bool c.Protocol.audit;
      (match c.Protocol.sample with
      | None -> "off"
      | Some sp -> Levioso_uarch.Sampler.spec_to_string sp);
    ]

let exec t ~use_cache ?scope cell () =
  (match t.opts.monitor with
  | Some m ->
    Monitor.start m (cell.Protocol.workload ^ "/" ^ cell.Protocol.policy)
  | None -> ());
  let cache = if use_cache then t.opts.cache else None in
  match Engine.run_cell ?cache ?scope cell with
  | o ->
    (match o.Engine.source with
    | "cache" -> Atomic.incr t.cached
    | _ -> Atomic.incr t.simulated);
    (match t.opts.monitor with
    | Some m -> Monitor.item_done m ~wall_s:o.Engine.wall_s ()
    | None -> ());
    o
  | exception e ->
    (* the monitor's per-domain "current item" must clear even when a
       cell raises, or the live view shows it as stuck forever *)
    (match t.opts.monitor with
    | Some m -> Monitor.item_done m ()
    | None -> ());
    raise e

(* Schedule one cell, merging onto an identical in-flight computation
   when one exists.  The memo is advisory: a racing double-insert or an
   early removal only costs a duplicate simulation, never a wrong
   result (cells are deterministic).  The lock is never held across
   [Parallel.async] — a bounded pool blocks there, and a worker
   finishing a task must not need the lock we hold (deadlock). *)
let schedule t ~use_cache ?scope cell =
  let key = cell_key ~use_cache cell in
  match
    Mutex.protect t.inflight_mu (fun () -> Hashtbl.find_opt t.inflight key)
  with
  | Some fut ->
    Atomic.incr t.merged;
    (fut, false)
  | None ->
    let fut = Parallel.async t.pool (exec t ~use_cache ?scope cell) in
    Mutex.protect t.inflight_mu (fun () ->
        if not (Hashtbl.mem t.inflight key) then Hashtbl.add t.inflight key fut);
    (fut, true)

let unschedule t ~use_cache cell fut =
  let key = cell_key ~use_cache cell in
  Mutex.protect t.inflight_mu (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some f when f == fut -> Hashtbl.remove t.inflight key
      | _ -> ())

(* Queue-wait and execution time of [fut], clamped to the window that
   opens at this submission's schedule instant [t_sched]: a merged cell
   rides a future another submission created — possibly long before we
   arrived — and the access-log invariant queue + exec <= total must
   hold per request, not per future. *)
let cell_times fut ~t_sched =
  match Parallel.times fut with
  | None -> (0., 0.)
  | Some tm ->
    let base = Float.max tm.Parallel.submitted_s t_sched in
    let queue_s = Float.max 0. (tm.Parallel.started_s -. base) in
    let exec_s =
      Float.max 0.
        (tm.Parallel.finished_s -. Float.max tm.Parallel.started_s base)
    in
    (queue_s, exec_s)

let handle_submit t oc ~id ~cache ~trace cells =
  let n = List.length cells in
  Protocol.(write_frame oc (response_to_json (Ack { id; cells = n })));
  let trace = match trace with Some tr -> tr | None -> Span.mint_trace () in
  let req_span =
    Option.map
      (fun spans ->
        let sp = Span.start spans ~trace "submit" in
        Span.add_attr sp "request" id;
        Span.add_attr sp "cells" (string_of_int n);
        sp)
      t.opts.spans
  in
  let req_parent = match req_span with Some sp -> Span.id sp | None -> -1 in
  let t0 = Unix.gettimeofday () in
  (* Enqueue everything up front (a bounded queue blocks right here —
     that is the backpressure), then stream results in submission order
     as they complete.  Validation is per cell: an invalid cell becomes
     its own [error] result and the rest of the batch proceeds. *)
  let scheduled =
    List.map
      (fun cell ->
        match Engine.validate_cell cell with
        | Error msg ->
          let msg =
            Printf.sprintf "%s/%s: %s" cell.Protocol.workload
              cell.Protocol.policy msg
          in
          (cell, `Invalid (msg, Unix.gettimeofday ()))
        | Ok () ->
          let cspan =
            Option.map
              (fun spans ->
                let sp = Span.start spans ~trace ~parent:req_parent "cell" in
                Span.add_attr sp "workload" cell.Protocol.workload;
                Span.add_attr sp "policy" cell.Protocol.policy;
                sp)
              t.opts.spans
          in
          let scope =
            Option.map
              (fun spans ->
                {
                  Engine.spans;
                  trace;
                  parent =
                    (match cspan with Some sp -> Span.id sp | None -> -1);
                })
              t.opts.spans
          in
          let t_sched = Unix.gettimeofday () in
          let fut, fresh = schedule t ~use_cache:cache ?scope cell in
          if fresh then
            Option.iter (fun m -> Monitor.inc_total m 1) t.opts.monitor;
          publish_gauges t;
          (cell, `Scheduled (fut, fresh, t_sched, cspan)))
      cells
  in
  let simulated = ref 0 and cached = ref 0 and failed = ref 0 in
  (* The single exit point per cell: stream the result frame, close the
     cell span, feed the latency windows and append the access record —
     so every accounting surface agrees on what was served. *)
  let emit ~index ~cell ~t_sched ~cspan ~source ~wall_s ~summary ~error
      ~queue_s ~exec_s ~engine_stages ~merged =
    let t_ser = Unix.gettimeofday () in
    Protocol.(
      write_frame oc
        (response_to_json (Result { id; index; source; wall_s; summary; error })));
    let t_done = Unix.gettimeofday () in
    let serialize_s = t_done -. t_ser in
    let total_s = Float.max 0. (t_done -. t_sched) in
    (match t.opts.spans with
    | Some spans ->
      Option.iter
        (fun sp ->
          Span.finish spans
            ~attrs:
              ([ ("index", string_of_int index); ("source", source) ]
              @ (if merged then [ ("merged", "true") ] else [])
              @ (match error with Some e -> [ ("error", e) ] | None -> []))
            sp)
        cspan
    | None -> ());
    if error = None then begin
      observe_stage t "queue" queue_s;
      observe_stage t "exec" exec_s;
      observe_stage t "serialize" serialize_s;
      observe_stage t "total" total_s
    end;
    if t.opts.access_log <> None || t.history <> None then begin
      (* one record, two consumers: the JSONL access log and the flight
         recorder's bounded ring.  All timestamps above were already
         taken, so feeding the ring costs no extra clock reads. *)
      let record =
        Span.access_record ~ts:t_done ~trace ~request:id ~index
          ~workload:cell.Protocol.workload ~policy:cell.Protocol.policy
          ~source ?error
          ~stages:
            ([ ("queue", queue_s); ("exec", exec_s) ]
            @ engine_stages
            @ [ ("serialize", serialize_s) ])
          ~total_s ()
      in
      (match t.opts.access_log with
      | None -> ()
      | Some log_oc ->
        Mutex.protect t.access_mu (fun () ->
            output_string log_oc (Json.to_string ~minify:true record);
            output_char log_oc '\n';
            flush log_oc));
      match t.history with
      | Some h -> Flight.add_record h.flight record
      | None -> ()
    end
  in
  (* Whatever interrupts the stream — a Failed future re-raised by
     await, a write to a vanished client — every fresh cell of the
     batch must leave the memo, or its key is poisoned for the daemon's
     lifetime (later identical submissions would merge onto the dead
     future instead of re-simulating).  [unschedule] is idempotent, so
     the eager per-cell removal below and this sweep can overlap. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (cell, disp) ->
          match disp with
          | `Scheduled (fut, true, _, _) ->
            unschedule t ~use_cache:cache cell fut
          | _ -> ())
        scheduled;
      (match (req_span, t.opts.spans) with
      | Some sp, Some spans ->
        Span.finish spans ~attrs:[ ("failed", string_of_int !failed) ] sp
      | _ -> ());
      publish_gauges t)
    (fun () ->
      List.iteri
        (fun index (cell, disp) ->
          match disp with
          | `Invalid (msg, t_sched) ->
            incr failed;
            Atomic.incr t.errors;
            emit ~index ~cell ~t_sched ~cspan:None ~source:"error" ~wall_s:0.
              ~summary:Json.Null ~error:(Some msg) ~queue_s:0. ~exec_s:0.
              ~engine_stages:[] ~merged:false
          | `Scheduled (fut, fresh, t_sched, cspan) -> (
            match Parallel.await fut with
            | o ->
              if fresh then unschedule t ~use_cache:cache cell fut;
              (match o.Engine.source with
              | "cache" -> incr cached
              | _ -> incr simulated);
              publish_gauges t;
              let queue_s, exec_s = cell_times fut ~t_sched in
              emit ~index ~cell ~t_sched ~cspan ~source:o.Engine.source
                ~wall_s:o.Engine.wall_s ~summary:o.Engine.summary ~error:None
                ~queue_s ~exec_s ~engine_stages:o.Engine.stages
                ~merged:(not fresh)
            | exception e ->
              (* a raising cell is that cell's failure, not the
                 batch's: drop its memo entry so later submissions
                 re-simulate, report it, and keep streaming *)
              if fresh then unschedule t ~use_cache:cache cell fut;
              incr failed;
              Atomic.incr t.errors;
              (* a deadlocked simulation is exactly the moment the
                 flight recorder exists for: dump the recent rings
                 before the diagnostic is reduced to one error string *)
              (match e with
              | Pipeline.Deadlock _ ->
                postmortem t
                  ~reason:
                    (Printf.sprintf "deadlock: %s/%s" cell.Protocol.workload
                       cell.Protocol.policy)
              | _ -> ());
              let queue_s, exec_s = cell_times fut ~t_sched in
              emit ~index ~cell ~t_sched ~cspan ~source:"error" ~wall_s:0.
                ~summary:Json.Null ~error:(Some (Printexc.to_string e))
                ~queue_s ~exec_s ~engine_stages:[] ~merged:(not fresh)))
        scheduled;
      Protocol.(
        write_frame oc
          (response_to_json
             (Done
                {
                  id;
                  stats =
                    {
                      simulated = !simulated;
                      cached = !cached;
                      failed = !failed;
                      wall_s = Unix.gettimeofday () -. t0;
                    };
                }))))

let stop_accepting t =
  if Atomic.compare_and_set t.running true false then begin
    (* wake the accept loop: shutdown works on Linux listening sockets,
       and the self-connect covers platforms where it does not *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect probe (Unix.ADDR_UNIX t.opts.socket_path)
     with Unix.Unix_error _ -> ());
    try Unix.close probe with Unix.Unix_error _ -> ()
  end

let handle_request t oc req =
  Atomic.incr t.requests;
  match (req : Protocol.request) with
  | Protocol.List ->
    Protocol.(
      write_frame oc
        (response_to_json
           (Listing
              { workloads = Catalog.listing (); policies = Catalog.policies () })))
  | Protocol.Ping -> Protocol.(write_frame oc (response_to_json Pong))
  | Protocol.Stats ->
    Protocol.(
      write_frame oc (response_to_json (Stats_snapshot (stats_snapshot t))))
  | Protocol.Prune days ->
    let removed =
      match t.opts.cache with
      | Some cache -> Run_cache.prune cache ~max_age_days:days
      | None -> 0
    in
    log t (Printf.sprintf "prune: removed %d entries" removed);
    Protocol.(write_frame oc (response_to_json (Pruned removed)))
  | Protocol.Shutdown ->
    log t "shutdown requested";
    Protocol.(write_frame oc (response_to_json Bye));
    stop_accepting t
  | Protocol.Submit { id; cache; trace; cells } ->
    handle_submit t oc ~id ~cache ~trace cells
  | Protocol.History { since; until; last } -> (
    match t.history with
    | None ->
      Protocol.(
        write_frame oc
          (response_to_json
             (Error "daemon is running without --history-out")))
    | Some h -> (
      match Tsdb.read_dir ?since ?until h.h_dir with
      | Error e ->
        Atomic.incr t.errors;
        Protocol.(write_frame oc (response_to_json (Error e)))
      | Ok records ->
        let records =
          if last > 0 then
            let n = List.length records in
            List.filteri (fun i _ -> i >= n - last) records
          else records
        in
        Protocol.(
          write_frame oc
            (response_to_json (History_data (Protocol.history_doc records))))))

let handle_client t conn fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let finally () =
    Mutex.protect t.clients_mu (fun () ->
        t.clients := List.filter (fun (_, f) -> f <> fd) !(t.clients));
    publish_gauges t;
    (try flush oc with Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      Protocol.(
        write_frame oc
          (response_to_json
             (Hello
                {
                  proto = Protocol.version;
                  pool = Parallel.size t.pool;
                  cache = t.opts.cache <> None;
                })));
      let rec loop () =
        match Protocol.read_frame ~max_bytes:Protocol.max_frame_bytes ic with
        | Ok None -> log t (Printf.sprintf "client %d: disconnected" conn)
        | Error msg ->
          log t (Printf.sprintf "client %d: %s" conn msg);
          Atomic.incr t.errors;
          Protocol.(write_frame oc (response_to_json (Error msg)))
        | Ok (Some j) ->
          (match Protocol.request_of_json j with
          | Error msg ->
            Atomic.incr t.errors;
            Protocol.(write_frame oc (response_to_json (Error msg)))
          | Ok req -> (
            match handle_request t oc req with
            | () -> ()
            | exception e ->
              (* a failing request must not kill the connection: report
                 and keep serving (Invalid_argument from a stopped pool,
                 Sys_error from a vanished cache directory, ...) *)
              Atomic.incr t.errors;
              (* dump the flight recorder for genuine daemon faults; a
                 client that vanished mid-write (EPIPE & friends) is
                 the client's problem, not a post-mortem *)
              (match e with
              | Sys_error _ | End_of_file | Unix.Unix_error _ -> ()
              | _ ->
                postmortem t
                  ~reason:("server-error: " ^ Printexc.to_string e));
              Protocol.(
                write_frame oc
                  (response_to_json (Error (Printexc.to_string e))))));
          if Atomic.get t.running then loop ()
      in
      try loop ()
      with Sys_error _ | End_of_file ->
        (* client went away mid-frame; nothing to answer *)
        ())

let bind_listener socket_path =
  if Sys.file_exists socket_path then begin
    (* refuse to clobber a live daemon; clean up a dead one's socket *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX socket_path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "levioso_serve: %s is already served by a live daemon"
           socket_path);
    Sys.remove socket_path
  end;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 64;
  listener

let run ?(on_ready = fun () -> ()) opts =
  (* A client that disconnects mid-stream must surface as a Sys_error
     (EPIPE) on the write — which handle_client absorbs — not as a
     SIGPIPE whose default action kills the daemon for everyone. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener = bind_listener opts.socket_path in
  let pool =
    Parallel.create ~size:(max 1 opts.pool_size) ?max_pending:opts.queue_max ()
  in
  let history =
    Option.map
      (fun ho ->
        {
          h_dir = ho.history_dir;
          h_interval_s = Float.max 0.01 ho.history_interval_s;
          tsdb = Tsdb.create ~dir:ho.history_dir ();
          halerts = Alerts.create ho.alert_rules;
          flight = Flight.create ();
          dump_req = Atomic.make None;
          h_stop = Atomic.make false;
          h_prev = None;
        })
      opts.history
  in
  let t =
    {
      opts;
      listener;
      pool;
      running = Atomic.make true;
      started = Unix.gettimeofday ();
      inflight = Hashtbl.create 64;
      inflight_mu = Mutex.create ();
      clients = ref [];
      clients_mu = Mutex.create ();
      next_conn = Atomic.make 0;
      simulated = Atomic.make 0;
      cached = Atomic.make 0;
      merged = Atomic.make 0;
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      lat =
        List.map (fun s -> (s, Span.Window.create window_capacity)) lat_stages;
      lat_hist = List.map (fun s -> (s, Span.Hist.create ())) lat_stages;
      access_mu = Mutex.create ();
      history;
    }
  in
  let sampler =
    Option.map
      (fun h ->
        (* SIGUSR1 = operator-requested post-mortem.  The handler only
           flips an atomic flag; the sampler thread does the dump. *)
        (try
           Sys.set_signal Sys.sigusr1
             (Sys.Signal_handle
                (fun _ -> Atomic.set h.dump_req (Some "sigusr1")))
         with Invalid_argument _ | Sys_error _ -> ());
        log t
          (Printf.sprintf "history -> %s (every %gs%s)" h.h_dir h.h_interval_s
             (match List.length (Alerts.rules h.halerts) with
             | 0 -> ""
             | n -> Printf.sprintf ", %d alert rules" n));
        Thread.create (fun () -> sampler_loop t h) ())
      history
  in
  log t
    (Printf.sprintf "listening on %s (pool %d%s, cache %s)" opts.socket_path
       (Parallel.size pool)
       (match opts.queue_max with
       | Some n -> Printf.sprintf ", queue <= %d" n
       | None -> "")
       (if opts.cache <> None then "on" else "off"));
  publish_gauges t;
  on_ready ();
  let rec accept_loop () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error _ -> if Atomic.get t.running then accept_loop ()
    | fd, _ ->
      if not (Atomic.get t.running) then (
        try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        let conn = Atomic.fetch_and_add t.next_conn 1 in
        log t (Printf.sprintf "client %d: connected" conn);
        let th = Thread.create (fun () -> handle_client t conn fd) () in
        Mutex.protect t.clients_mu (fun () ->
            t.clients := (th, fd) :: !(t.clients));
        publish_gauges t;
        accept_loop ()
      end
  in
  accept_loop ();
  (* drain: outstanding submissions finish against the still-live pool,
     then lingering idle connections are nudged with an EOF *)
  Parallel.shutdown pool;
  let remaining = Mutex.protect t.clients_mu (fun () -> !(t.clients)) in
  List.iter
    (fun (_, fd) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    remaining;
  List.iter (fun (th, _) -> Thread.join th) remaining;
  (* stop the sampler after the drain so the shutdown burst is still
     recorded; it takes one final sample on its way out *)
  (match (history, sampler) with
  | Some h, Some th ->
    Atomic.set h.h_stop true;
    Thread.join th;
    Tsdb.close h.tsdb
  | _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (try Sys.remove opts.socket_path with Sys_error _ -> ());
  (match opts.monitor with Some m -> Monitor.close m | None -> ());
  log t "stopped"
