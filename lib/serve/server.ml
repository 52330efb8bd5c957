module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Monitor = Levioso_telemetry.Monitor
module Span = Levioso_telemetry.Span
module Latency = Span.Latency
module Tsdb = Levioso_telemetry.Tsdb
module Files = Levioso_telemetry.Files
module Run_cache = Levioso_uarch.Run_cache
module Parallel = Levioso_util.Parallel

type history_opts = {
  history_dir : string;
  history_interval_s : float;
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
   order.  Their recorders (exact p50/p95/p99 for the stats frame and
   `top`, log-scale histograms for OpenMetrics) are always on — one
   lock and a handful of float writes per stage per cell, never touching
   results; span collection and the access log stay Option-gated. *)
let lat_stages = [ "queue"; "exec"; "serialize"; "total" ]

(* Continuous-telemetry state, allocated only under --history-out.  A
   daemon without it constructs none of this: the sampler thread, its
   and its clock reads simply do not exist, which is the zero-effect
   guarantee. *)
type hist = {
  h_dir : string;  (* absolute *)
  h_interval_s : float;
  tsdb : Tsdb.t;
  h_stop : bool Atomic.t;
  (* previous tick's timestamp and fields, for rates *)
  mutable h_prev : (float * (string * float) list) option;
}

type t = {
  opts : opts;
  listener : Unix.file_descr;
  pool : Parallel.t;
  running : bool Atomic.t;
  started : float;
  cache_dir : string option;  (* absolute *)
  clients : (Thread.t * Unix.file_descr) list ref;
  clients_mu : Mutex.t;
  next_conn : int Atomic.t;
  (* lifetime counters for the stats frame / OpenMetrics gauges *)
  simulated : int Atomic.t;
  cached : int Atomic.t;
  inflight : int Atomic.t;  (* cells scheduled, not yet answered *)
  requests : int Atomic.t;
  errors : int Atomic.t;
  lat : (string * Latency.t) list;  (* one recorder per stage *)
  access_mu : Mutex.t;
  history : hist option;
}

let log t msg = match t.opts.log with Some f -> f msg | None -> ()

(* One reading of everything the daemon exposes.  The stats frame, the
   history sample and the monitor's gauges and histograms each render
   one snapshot, so no surface reads the daemon's state on its own. *)
type snapshot = {
  (* name (history field; "serve_" prefixed elsewhere), help, value *)
  gauges : (string * string * float) list;
  latency : (string * Latency.reading) list;  (* [lat_stages] order *)
  gc : (string * string * float) list;  (* [Monitor.gc_counters] *)
}

let snapshot t =
  {
    gauges =
      [
        ("queue_depth", "Tasks waiting for a pool worker.",
         float_of_int (Parallel.queue_depth t.pool));
        ("inflight", "Cells currently being computed.",
         float_of_int (Atomic.get t.inflight));
        ("clients", "Connected clients.",
         float_of_int
           (Mutex.protect t.clients_mu (fun () -> List.length !(t.clients))));
        ("cells_simulated", "Cells simulated since daemon start.",
         float_of_int (Atomic.get t.simulated));
        ("cells_cached", "Cells replayed from the shard store.",
         float_of_int (Atomic.get t.cached));
        ("requests", "Requests handled since daemon start.",
         float_of_int (Atomic.get t.requests));
        ("errors", "Cells and frames that failed since daemon start.",
         float_of_int (Atomic.get t.errors));
      ];
    latency = List.map (fun (stage, r) -> (stage, Latency.read r)) t.lat;
    gc = Monitor.gc_counters ();
  }

let gauge s name =
  Option.get
    (List.find_map
       (fun (n, _, v) -> if n = name then Some v else None)
       s.gauges)

let percentiles (r : Latency.reading) =
  let sorted = Lazy.force r.recent in
  List.map
    (fun (name, q) -> (name, Latency.nearest_rank sorted q))
    [ ("p50_s", 0.5); ("p95_s", 0.95); ("p99_s", 0.99) ]

let publish_gauges t =
  match t.opts.monitor with
  | None -> ()
  | Some m ->
    let s = snapshot t in
    List.iter
      (fun (n, help, v) -> Monitor.set_gauge m ~help ("serve_" ^ n) v)
      s.gauges;
    List.iter
      (fun (stage, (r : Latency.reading)) ->
        if r.seen > 0 then
          Monitor.set_histogram m
            ~help:(Printf.sprintf "Per-cell %s latency, seconds." stage)
            (Printf.sprintf "serve_%s_seconds" stage)
            ~buckets:r.buckets ~sum:r.sum ~count:r.seen)
      s.latency

let stats_json t s =
  let path = function Some dir -> Json.String dir | None -> Json.Null in
  let stage (name, (r : Latency.reading)) =
    ( name,
      Json.Obj
        (("seen", Json.Int r.seen)
        :: ("window", Json.Int (Array.length (Lazy.force r.recent)))
        :: List.map
             (fun (name, p) ->
               (name, match p with Some v -> Json.float v | None -> Json.Null))
             (percentiles r)) )
  in
  Schema.tag
    [
      ("kind", Json.String "levioso-serve-stats");
      ("proto", Json.Int Protocol.version);
      ("pool", Json.Int (Parallel.size t.pool));
      ( "queue_max",
        match t.opts.queue_max with Some n -> Json.Int n | None -> Json.Null );
      ("cache_dir", path t.cache_dir);
      ("history_dir", path (Option.map (fun h -> h.h_dir) t.history));
      ("uptime_s", Json.float (Unix.gettimeofday () -. t.started));
      ("requests", Json.Int (int_of_float (gauge s "requests")));
      ("errors", Json.Int (int_of_float (gauge s "errors")));
      ( "gauges",
        Json.Obj
          (List.map (fun (n, _, v) -> ("serve_" ^ n, Json.float v)) s.gauges)
      );
      ("latency", Json.Obj (List.map stage s.latency));
    ]

(* --- continuous telemetry (--history-out) ------------------------------

   One sampler thread wakes every interval, reads the clock once,
   renders one snapshot into flat float fields and appends a tsdb
   sample.  Field names are what the dashboard reads: gauges go without
   their "serve_" prefix (queue_depth, requests, ...), latency
   percentiles are "<stage>_p50_s" etc. *)

let history_fields t s ~ts =
  let lat_fields =
    List.concat_map
      (fun (stage, (r : Latency.reading)) ->
        (stage ^ "_seen", float_of_int r.seen)
        :: List.filter_map
             (fun (name, p) -> Option.map (fun v -> (stage ^ "_" ^ name, v)) p)
             (percentiles r))
      s.latency
  in
  let hist_fields =
    List.concat_map
      (fun (stage, (r : Latency.reading)) ->
        [
          (stage ^ "_hist_count", float_of_int r.seen);
          (stage ^ "_hist_sum_s", r.sum);
        ]
        (* full cumulative buckets for the end-to-end stage only: 4
           stages x ~25 buckets per sample would triple record size for
           curves nobody charts *)
        @
        if stage = "total" then
          List.filter_map
            (fun (le, n) ->
              if n > 0 then
                Some (Printf.sprintf "total_le_%g" le, float_of_int n)
              else None)
            r.buckets
        else [])
      s.latency
  in
  let values = List.map (fun (name, _, v) -> (name, v)) in
  (("uptime_s", ts -. t.started) :: values s.gauges)
  @ lat_fields @ hist_fields @ values s.gc

let history_rates h ~ts fields =
  let get fields name = Option.value ~default:0. (List.assoc_opt name fields) in
  let rates =
    match h.h_prev with
    | Some (pts, prev) when ts > pts ->
      let dt = ts -. pts in
      let delta name = get fields name -. get prev name in
      let cached = delta "cells_cached" in
      let served = delta "cells_simulated" +. cached in
      [
        ("requests_per_s", delta "requests" /. dt);
        ("errors_per_s", delta "errors" /. dt);
        ("cells_per_s", served /. dt);
        ("cache_hit_share", if served > 0. then cached /. served else 0.);
      ]
    | _ -> []
  in
  h.h_prev <- Some (ts, fields);
  rates

let sample_history t h =
  let ts = Tsdb.now h.tsdb in
  let fields = history_fields t (snapshot t) ~ts in
  Tsdb.append ~ts h.tsdb (fields @ history_rates h ~ts fields)

let sampler_loop t h =
  sample_history t h;
  let next = ref (Unix.gettimeofday () +. h.h_interval_s) in
  let slice = Float.min 0.05 (Float.max 0.005 (h.h_interval_s /. 4.)) in
  while not (Atomic.get h.h_stop) do
    let now = Unix.gettimeofday () in
    if now >= !next then begin
      sample_history t h;
      (* re-anchor on the grid so a slow sample slips the phase instead
         of bunching the next ticks *)
      next := Float.max (!next +. h.h_interval_s) (now +. (h.h_interval_s /. 2.))
    end;
    Thread.delay slice
  done;
  (* final sample so even a short-lived daemon leaves >= 2 points *)
  sample_history t h

let exec t ~use_cache cell () =
  Option.iter
    (fun m ->
      Monitor.start m (cell.Protocol.workload ^ "/" ^ cell.Protocol.policy))
    t.opts.monitor;
  let cache = if use_cache then t.opts.cache else None in
  match Engine.run_cell ?cache cell with
  | o ->
    (match o.Engine.source with
    | "cache" -> Atomic.incr t.cached
    | _ -> Atomic.incr t.simulated);
    Option.iter Monitor.item_done t.opts.monitor;
    o
  | exception e ->
    (* the monitor's per-domain "current item" must clear even when a
       cell raises, or the live view shows it as stuck forever *)
    Option.iter Monitor.item_done t.opts.monitor;
    raise e

(* Queue wait and execution time of a finished cell's future. *)
let cell_times fut =
  match Parallel.times fut with
  | None -> (0., 0.)
  | Some tm ->
    ( tm.Parallel.started_s -. tm.Parallel.submitted_s,
      tm.Parallel.finished_s -. tm.Parallel.started_s )

(* A stage span's attributes, read back from the outcome: a probe that
   hit is followed by a replay stage, and a replay that decoded made the
   cell a cache hit. *)
let stage_attrs (cell : Protocol.cell) ~source stages = function
  | "cache_probe" ->
    let hit = List.exists (fun (name, _, _) -> name = "replay") stages in
    [ ("hit", string_of_bool hit) ]
  | "replay" -> [ ("replayable", string_of_bool (source = "cache")) ]
  | "simulate" ->
    [ ("workload", cell.Protocol.workload); ("policy", cell.Protocol.policy) ]
  | _ -> []

let handle_submit t oc ~id ~cache ~trace cells =
  let n = List.length cells in
  Protocol.(write_frame oc (response_to_json (Ack { id; cells = n })));
  let trace = match trace with Some tr -> tr | None -> Span.mint_trace () in
  let t0 = Unix.gettimeofday () in
  (* the submit span is recorded last, under an id its cells can name *)
  let req_id = Option.fold ~none:(-1) ~some:Span.fresh_id t.opts.spans in
  let record spans ~id ~parent name start_s stop_s attrs =
    Span.add spans { Span.trace; id; parent; name; start_s; stop_s; attrs }
  in
  let simulated = ref 0 and cached = ref 0 and failed = ref 0 in
  (* The single exit point per cell: stream the result frame, record the
     cell's spans, feed the latency windows and append the access record,
     all from the same instants — so every accounting surface agrees on
     what was served.  The cell span covers [total_s]. *)
  let emit ~index ~cell ~t_sched ~source ~wall_s ~summary ~error ~queue_s
      ~exec_s ~engine_stages =
    let t_ser = Unix.gettimeofday () in
    Protocol.(
      write_frame oc
        (response_to_json (Result { id; index; source; wall_s; summary; error })));
    let t_done = Unix.gettimeofday () in
    let serialize_s = t_done -. t_ser in
    let total_s = Float.max 0. (t_done -. t_sched) in
    Option.iter
      (fun spans ->
        let cell_id = Span.fresh_id spans in
        record spans ~id:cell_id ~parent:req_id "cell" t_sched t_done
          ([
             ("workload", cell.Protocol.workload);
             ("policy", cell.Protocol.policy);
             ("index", string_of_int index);
             ("source", source);
           ]
          @ match error with Some e -> [ ("error", e) ] | None -> []);
        List.iter
          (fun (name, start_s, stop_s) ->
            record spans ~id:(Span.fresh_id spans) ~parent:cell_id name
              start_s stop_s
              (stage_attrs cell ~source engine_stages name))
          engine_stages)
      t.opts.spans;
    (* in [lat_stages] order *)
    if error = None then
      List.iter2
        (fun (_, r) v -> Latency.observe r v)
        t.lat
        [ queue_s; exec_s; serialize_s; total_s ];
    match t.opts.access_log with
    | None -> ()
    | Some log_oc ->
      let record =
        Span.access_record ~ts:t_done ~trace ~request:id ~index
          ~workload:cell.Protocol.workload ~policy:cell.Protocol.policy
          ~source ?error
          ~stages:
            ([ ("queue", queue_s); ("exec", exec_s) ]
            @ List.map
                (fun (name, start_s, stop_s) -> (name, stop_s -. start_s))
                engine_stages
            @ [ ("serialize", serialize_s) ])
          ~total_s ()
      in
      Mutex.protect t.access_mu (fun () ->
          output_string log_oc (Json.to_string ~minify:true record);
          output_char log_oc '\n';
          flush log_oc)
  in
  let fail ~index ~cell ~t_sched ~queue_s ~exec_s msg =
    incr failed;
    Atomic.incr t.errors;
    emit ~index ~cell ~t_sched ~source:"error" ~wall_s:0. ~summary:Json.Null
      ~error:(Some msg) ~queue_s ~exec_s ~engine_stages:[]
  in
  (* Cells scheduled by this batch and not answered yet.  Whatever
     interrupts the stream (a write to a vanished client, a stopped
     pool), the cells it never answers leave the inflight gauge. *)
  let unanswered = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      ignore (Atomic.fetch_and_add t.inflight (- !unanswered));
      Option.iter
        (fun spans ->
          record spans ~id:req_id ~parent:(-1) "submit" t0
            (Unix.gettimeofday ())
            [
              ("request", id);
              ("cells", string_of_int n);
              ("failed", string_of_int !failed);
            ])
        t.opts.spans;
      publish_gauges t)
    (fun () ->
      (* Enqueue everything up front (a bounded queue blocks right here —
         that is the backpressure), then stream results in submission
         order as they complete.  Validation is per cell: an invalid cell
         becomes its own [error] result and the rest of the batch
         proceeds. *)
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
              let t_sched = Unix.gettimeofday () in
              let fut = Parallel.async t.pool (exec t ~use_cache:cache cell) in
              incr unanswered;
              Atomic.incr t.inflight;
              Option.iter (fun m -> Monitor.inc_total m 1) t.opts.monitor;
              publish_gauges t;
              (cell, `Scheduled (fut, t_sched)))
          cells
      in
      List.iteri
        (fun index (cell, disp) ->
          match disp with
          | `Invalid (msg, t_sched) ->
            fail ~index ~cell ~t_sched ~queue_s:0. ~exec_s:0. msg
          | `Scheduled (fut, t_sched) -> (
            let outcome =
              match Parallel.await fut with o -> Ok o | exception e -> Error e
            in
            decr unanswered;
            Atomic.decr t.inflight;
            publish_gauges t;
            let queue_s, exec_s = cell_times fut in
            match outcome with
            | Ok o ->
              (match o.Engine.source with
              | "cache" -> incr cached
              | _ -> incr simulated);
              emit ~index ~cell ~t_sched ~source:o.Engine.source
                ~wall_s:o.Engine.wall_s ~summary:o.Engine.summary ~error:None
                ~queue_s ~exec_s ~engine_stages:o.Engine.stages
            | Error e ->
              (* a raising cell is that cell's failure, not the batch's *)
              fail ~index ~cell ~t_sched ~queue_s ~exec_s (Printexc.to_string e)))
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
      write_frame oc
        (response_to_json (Stats_snapshot (stats_json t (snapshot t)))))
  | Protocol.Shutdown ->
    log t "shutdown requested";
    Protocol.(write_frame oc (response_to_json Bye));
    stop_accepting t
  | Protocol.Submit { id; cache; trace; cells } ->
    handle_submit t oc ~id ~cache ~trace cells

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

let absolute dir =
  if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir

let run ?(on_ready = fun () -> ()) opts =
  (* A client that disconnects mid-stream must surface as a Sys_error
     (EPIPE) on the write — which handle_client absorbs — not as a
     SIGPIPE whose default action kills the daemon for everyone. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* Every directory the daemon writes under exists before it binds, so
     an unusable --cache-dir or --history-out stops it here rather than
     failing each cell at the store or killing the sampler. *)
  let cache_dir = Option.map (fun c -> absolute (Run_cache.dir c)) opts.cache in
  Option.iter Files.mkdir_p cache_dir;
  let history =
    Option.map
      (fun ho ->
        let h_dir = absolute ho.history_dir in
        {
          h_dir;
          h_interval_s = Float.max 0.01 ho.history_interval_s;
          tsdb = Tsdb.create ~dir:h_dir ();
          h_stop = Atomic.make false;
          h_prev = None;
        })
      opts.history
  in
  let listener = bind_listener opts.socket_path in
  let unbind () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    try Sys.remove opts.socket_path with Sys_error _ -> ()
  in
  let pool =
    Parallel.create ~size:(max 1 opts.pool_size) ?max_pending:opts.queue_max ()
  in
  let t =
    {
      opts;
      listener;
      pool;
      running = Atomic.make true;
      started = Unix.gettimeofday ();
      cache_dir;
      clients = ref [];
      clients_mu = Mutex.create ();
      next_conn = Atomic.make 0;
      simulated = Atomic.make 0;
      cached = Atomic.make 0;
      inflight = Atomic.make 0;
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      lat = List.map (fun s -> (s, Latency.create ())) lat_stages;
      access_mu = Mutex.create ();
      history;
    }
  in
  (* the first metrics write is the last start-up step that can fail (an
     unwritable --metrics); a daemon that does not start leaves no socket *)
  (try publish_gauges t
   with e ->
     Parallel.shutdown pool;
     unbind ();
     raise e);
  let sampler =
    Option.map
      (fun h ->
        log t
          (Printf.sprintf "history -> %s (every %gs)" h.h_dir h.h_interval_s);
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
  unbind ();
  Option.iter Monitor.close opts.monitor;
  log t "stopped"
