(* The simulation-as-a-service stack: wire-protocol round-trips and
   frame-tag strictness, the shared workload/policy catalog, engine
   determinism against the in-process path, and a live daemon on a temp
   socket exercised by sequential and concurrent clients (equality of
   every client's results with a local run, cache replay on
   resubmission, prune, graceful shutdown), and the start-up failures
   that leave nothing behind. *)

module Config = Levioso_uarch.Config
module Run_cache = Levioso_uarch.Run_cache
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Json = Levioso_telemetry.Json
module Tsdb = Levioso_telemetry.Tsdb
module Monitor = Levioso_telemetry.Monitor
module Protocol = Levioso_serve.Protocol
module Catalog = Levioso_serve.Catalog
module Engine = Levioso_serve.Engine
module Server = Levioso_serve.Server
module Client = Levioso_serve.Client

let cell ?(workload = "stream") ?(policy = "unsafe") ?(audit = false)
    ?sample ?(config = Config.default) () =
  { Protocol.config; workload; policy; audit; sample }

(* ---------- protocol ---------- *)

let test_cell_round_trip () =
  let sample =
    match Sampler.parse "5000:1000:10" with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let check what c =
    match Protocol.cell_of_json (Protocol.cell_to_json c) with
    | Error msg -> Alcotest.fail (what ^ ": " ^ msg)
    | Ok back -> Alcotest.(check bool) what true (back = c)
  in
  check "plain cell" (cell ());
  check "audited cell" (cell ~audit:true ());
  check "sampled cell" (cell ?sample ());
  check "custom config"
    (cell ~config:{ Config.default with Config.rob_size = 48 } ())

let test_request_round_trip () =
  let check what r =
    match Protocol.request_of_json (Protocol.request_to_json r) with
    | Error msg -> Alcotest.fail (what ^ ": " ^ msg)
    | Ok back -> Alcotest.(check bool) what true (back = r)
  in
  check "list" Protocol.List;
  check "ping" Protocol.Ping;
  check "stats" Protocol.Stats;
  check "shutdown" Protocol.Shutdown;
  check "submit"
    (Protocol.Submit
       {
         id = "r1";
         cache = false;
         trace = None;
         cells = [ cell (); cell ~policy:"levioso" () ];
       });
  check "traced submit"
    (Protocol.Submit
       { id = "r2"; cache = true; trace = Some "tr-42-7"; cells = [ cell () ] })

let test_response_round_trip () =
  let summary = Json.Obj [ ("stats", Json.Obj [ ("cycles", Json.Int 9) ]) ] in
  let check what r =
    match Protocol.response_of_json (Protocol.response_to_json r) with
    | Error msg -> Alcotest.fail (what ^ ": " ^ msg)
    | Ok back -> Alcotest.(check bool) what true (back = r)
  in
  check "hello" (Protocol.Hello { proto = 1; pool = 4; cache = true });
  check "listing"
    (Protocol.Listing
       { workloads = [ ("w", "desc") ]; policies = [ "unsafe" ] });
  check "ack" (Protocol.Ack { id = "r1"; cells = 2 });
  check "result"
    (Protocol.Result
       {
         id = "r1";
         index = 0;
         source = "sim";
         wall_s = 0.5;
         summary;
         error = None;
       });
  check "error result"
    (Protocol.Result
       {
         id = "r1";
         index = 1;
         source = "error";
         wall_s = 0.;
         summary = Json.Null;
         error = Some "unknown workload \"no-such\"";
       });
  check "done"
    (Protocol.Done
       {
         id = "r1";
         stats = { simulated = 1; cached = 1; failed = 0; wall_s = 0.9 };
       });
  check "stats-snapshot" (Protocol.Stats_snapshot summary);
  check "pong" Protocol.Pong;
  check "error" (Protocol.Error "boom");
  check "bye" Protocol.Bye

let test_frame_tag_strictness () =
  let reject what j =
    Alcotest.(check bool) what true (Result.is_error (Protocol.request_of_json j))
  in
  reject "untagged frame" (Json.Obj [ ("type", Json.String "ping") ]);
  reject "wrong generation"
    (Json.Obj
       [
         ("frame", Json.String "levioso-serve/v0");
         ("type", Json.String "ping");
       ]);
  reject "unknown type"
    (Json.Obj
       [
         ("frame", Json.String Protocol.frame_tag);
         ("type", Json.String "frobnicate");
       ])

(* Frames from pre-tracing peers lack the optional [trace] / [error] /
   [failed] fields; both directions must keep parsing them under the
   unchanged v1 frame tag. *)
let test_optional_field_back_compat () =
  let tagged fields =
    Json.Obj (("frame", Json.String Protocol.frame_tag) :: fields)
  in
  (match
     Protocol.request_of_json
       (tagged
          [
            ("type", Json.String "submit");
            ("id", Json.String "r1");
            ("cache", Json.Bool true);
            ("cells", Json.List [ Protocol.cell_to_json (cell ()) ]);
          ])
   with
  | Ok (Protocol.Submit { trace = None; cells = [ _ ]; _ }) -> ()
  | Ok _ -> Alcotest.fail "traceless submit decoded oddly"
  | Error msg -> Alcotest.fail msg);
  (match
     Protocol.response_of_json
       (tagged
          [
            ("type", Json.String "result");
            ("id", Json.String "r1");
            ("index", Json.Int 0);
            ("source", Json.String "sim");
            ("wall_s", Json.Float 0.5);
            ("summary", Json.Obj []);
          ])
   with
  | Ok (Protocol.Result { error = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "errorless result decoded oddly"
  | Error msg -> Alcotest.fail msg);
  (match
     Protocol.response_of_json
       (tagged
          [
            ("type", Json.String "done");
            ("id", Json.String "r1");
            ("simulated", Json.Int 2);
            ("cached", Json.Int 1);
            ("wall_s", Json.Float 0.9);
          ])
   with
  | Ok (Protocol.Done { stats = { failed = 0; simulated = 2; _ }; _ }) -> ()
  | Ok _ -> Alcotest.fail "pre-tracing done decoded oddly"
  | Error msg -> Alcotest.fail msg);
  (* optional means absent-is-fine, not anything-goes *)
  Alcotest.(check bool) "non-string trace rejected" true
    (Result.is_error
       (Protocol.request_of_json
          (tagged
             [
               ("type", Json.String "submit");
               ("id", Json.String "r1");
               ("trace", Json.Int 3);
               ("cache", Json.Bool true);
               ("cells", Json.List []);
             ])))

(* ---------- catalog ---------- *)

let test_catalog () =
  let names = Catalog.workload_names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " resolvable") true (List.mem n names))
    [ "stream"; "stream-xl"; "spectre-v1" ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " findable") true
        (Catalog.find_workload n <> None))
    names;
  Alcotest.(check bool) "unknown workload is None" true
    (Catalog.find_workload "no-such" = None);
  Alcotest.(check bool) "policies include levioso" true
    (List.mem "levioso" (Catalog.policies ()))

(* ---------- engine ---------- *)

let test_engine_validate () =
  Alcotest.(check bool) "good cell validates" true
    (Engine.validate_cell (cell ()) = Ok ());
  Alcotest.(check bool) "unknown workload rejected" true
    (Result.is_error (Engine.validate_cell (cell ~workload:"no-such" ())));
  Alcotest.(check bool) "unknown policy rejected" true
    (Result.is_error (Engine.validate_cell (cell ~policy:"no-such" ())));
  let sample =
    match Sampler.parse "5000:1000:10" with Ok s -> s | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "audit x sample rejected" true
    (Result.is_error (Engine.validate_cell (cell ~audit:true ?sample ())));
  Alcotest.(check bool) "bad config rejected" true
    (Result.is_error
       (Engine.validate_cell
          (cell ~config:{ Config.default with Config.rob_size = 0 } ())))

let test_engine_deterministic_and_cached () =
  let dir = Filename.temp_file "levioso-serve-engine" "" in
  Sys.remove dir;
  let cache = Run_cache.create ~stamp:"t" ~dir () in
  let c = cell ~policy:"levioso" () in
  let a = Engine.run_cell ~cache c in
  Alcotest.(check string) "first run simulates" "sim" a.Engine.source;
  let b = Engine.run_cell ~cache c in
  Alcotest.(check string) "second run replays" "cache" b.Engine.source;
  Alcotest.(check string) "replay is bit-identical"
    (Json.to_string a.Engine.summary)
    (Json.to_string b.Engine.summary);
  let fresh = Engine.run_cell c in
  Alcotest.(check string) "uncached rerun is bit-identical"
    (Json.to_string a.Engine.summary)
    (Json.to_string fresh.Engine.summary)

let test_engine_never_caches_estimates () =
  let dir = Filename.temp_file "levioso-serve-engine" "" in
  Sys.remove dir;
  let cache = Run_cache.create ~stamp:"t" ~dir () in
  let sample =
    match Sampler.parse "2000:500:10" with Ok s -> s | Error m -> Alcotest.fail m
  in
  let sampled = cell ?sample () in
  Alcotest.(check bool) "sampled cell not cacheable" false
    (Engine.cacheable sampled);
  let a = Engine.run_cell ~cache sampled in
  Alcotest.(check string) "sampled run simulates" "sim" a.Engine.source;
  let b = Engine.run_cell ~cache sampled in
  Alcotest.(check string) "sampled rerun simulates again" "sim" b.Engine.source

(* ---------- live daemon ---------- *)

let temp_socket () =
  let f = Filename.temp_file "lev-serve" ".sock" in
  (* bind_listener treats the (never-listened-on) leftover as stale *)
  f

let with_server ?queue_max ?cache_dir ?monitor ?spans ?access_log ?history f =
  let socket_path = temp_socket () in
  let cache =
    Option.map (fun dir -> Run_cache.create ~stamp:"t" ~dir ()) cache_dir
  in
  let ready_mu = Mutex.create () in
  let ready_cond = Condition.create () in
  let ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Server.run
          ~on_ready:(fun () ->
            Mutex.lock ready_mu;
            ready := true;
            Condition.broadcast ready_cond;
            Mutex.unlock ready_mu)
          {
            Server.socket_path;
            pool_size = 2;
            queue_max;
            cache;
            monitor;
            log = None;
            spans;
            access_log;
            history;
          })
      ()
  in
  Mutex.lock ready_mu;
  while not !ready do
    Condition.wait ready_cond ready_mu
  done;
  Mutex.unlock ready_mu;
  Fun.protect
    ~finally:(fun () ->
      (* idempotent: tests that already shut the daemon down just get a
         connection refusal here *)
      (try
         let c = Client.connect socket_path in
         Client.shutdown c;
         Client.close c
       with Client.Server_error _ -> ());
      Thread.join server)
    (fun () -> f socket_path)

let matrix_cells =
  [
    cell ();
    cell ~policy:"levioso" ();
    cell ~workload:"matmul" ();
    cell ~workload:"matmul" ~policy:"levioso" ();
  ]

let summaries results =
  Array.to_list
    (Array.map
       (fun (r : Client.result_cell) -> Json.to_string r.Client.summary)
       results)

let local_summaries cells =
  List.map
    (fun c -> Json.to_string (Engine.run_cell c).Engine.summary)
    cells

let test_server_end_to_end () =
  let dir = Filename.temp_file "levioso-serve-store" "" in
  Sys.remove dir;
  with_server ~cache_dir:dir (fun socket ->
      let c = Client.connect socket in
      Alcotest.(check int) "hello advertises the pool" 2 (Client.pool c);
      Alcotest.(check bool) "hello advertises the cache" true
        (Client.server_cache c);
      Client.ping c;
      let workloads, policies = Client.list c in
      Alcotest.(check bool) "listing has stream-xl" true
        (List.mem_assoc "stream-xl" workloads);
      Alcotest.(check bool) "listing has levioso" true
        (List.mem "levioso" policies);
      let results, stats = Client.submit c matrix_cells in
      Alcotest.(check int) "all cells simulated"
        (List.length matrix_cells)
        stats.Protocol.simulated;
      Alcotest.(check (list string))
        "streamed summaries match the in-process engine"
        (local_summaries matrix_cells) (summaries results);
      (* resubmission replays everything from the shard store *)
      let again, stats2 = Client.submit c matrix_cells in
      Alcotest.(check int) "warm resubmission simulates nothing" 0
        stats2.Protocol.simulated;
      Alcotest.(check int) "warm resubmission all cached"
        (List.length matrix_cells)
        stats2.Protocol.cached;
      Alcotest.(check (list string))
        "cached summaries bit-identical" (summaries results) (summaries again);
      (* a progress callback sees every index once, in order *)
      let seen = ref [] in
      let _, _ =
        Client.submit c matrix_cells ~on_result:(fun i _ ->
            seen := i :: !seen)
      in
      Alcotest.(check (list int))
        "results streamed in submission order"
        (List.init (List.length matrix_cells) Fun.id)
        (List.rev !seen);
      Alcotest.(check int) "nothing stale to prune" 0
        (Client.prune c ~max_age_days:30);
      (* prune works on the directory the daemon names: an entry aged
         past the horizon goes, the rest stay *)
      let first = List.hd matrix_cells in
      let entry =
        Run_cache.path
          (Run_cache.create ~stamp:"t" ~dir ())
          ~config:first.Protocol.config ~workload:first.Protocol.workload
          ~policy:first.Protocol.policy
      in
      let aged = Unix.gettimeofday () -. (40. *. 86400.) in
      Unix.utimes entry aged aged;
      Alcotest.(check int) "one entry aged past the horizon" 1
        (Client.prune c ~max_age_days:30);
      Alcotest.(check bool) "the aged entry is gone" false (Sys.file_exists entry);
      (* an invalid cell becomes its own error result — the batch
         completes and the connection survives *)
      let bad_results, bad_stats = Client.submit c [ cell ~workload:"no-such" () ] in
      Alcotest.(check int) "invalid cell counted as failed" 1
        bad_stats.Protocol.failed;
      Alcotest.(check string) "invalid cell source" "error"
        bad_results.(0).Client.source;
      Alcotest.(check bool) "invalid cell carries an error" true
        (bad_results.(0).Client.error <> None);
      Client.ping c;
      Client.shutdown c;
      Client.close c;
      (* bye is acked before the daemon finishes draining; give the
         cleanup a moment *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Sys.file_exists socket && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check bool) "socket unlinked after shutdown" false
        (Sys.file_exists socket))

let test_concurrent_clients_bit_identical () =
  with_server (fun socket ->
      let expected = local_summaries matrix_cells in
      let one_client _ =
        let c = Client.connect socket in
        let results, _ = Client.submit c matrix_cells in
        Client.close c;
        summaries results
      in
      (* joined threads can't return values, so each writes its own
         array slot *)
      let captured = Array.make 4 [] in
      let capture i = captured.(i) <- one_client i in
      let ts = List.init 4 (fun i -> Thread.create capture i) in
      List.iter Thread.join ts;
      Array.iteri
        (fun i s ->
          Alcotest.(check (list string))
            (Printf.sprintf "client %d bit-identical to local" i)
            expected s)
        captured;
      (* no request rides another's computation: each computes or
         replays every one of its cells *)
      let c = Client.connect socket in
      let stats = Client.stats c in
      Client.close c;
      let gauge name =
        int_of_float Json.(get (get to_float_exn name) "gauges" stats)
      in
      Alcotest.(check int) "cells simulated + cached"
        (4 * List.length matrix_cells)
        (gauge "serve_cells_simulated" + gauge "serve_cells_cached"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* One invalid cell among valid ones: the daemon reports that cell's
   failure (with the cell identity in the message) and serves the rest
   of the batch normally. *)
let test_mixed_batch_partial_failure () =
  with_server (fun socket ->
      let c = Client.connect socket in
      let good1 = cell () in
      let bad = cell ~workload:"no-such" () in
      let good2 = cell ~policy:"levioso" () in
      let results, stats = Client.submit c [ good1; bad; good2 ] in
      Alcotest.(check int) "one cell failed" 1 stats.Protocol.failed;
      Alcotest.(check int) "the rest simulated" 2 stats.Protocol.simulated;
      Alcotest.(check string) "failed cell source" "error"
        results.(1).Client.source;
      (match results.(1).Client.error with
      | Some msg ->
        Alcotest.(check bool) "error names the workload" true
          (contains msg "no-such")
      | None -> Alcotest.fail "failed cell has no error");
      Alcotest.(check bool) "failed summary is null" true
        (results.(1).Client.summary = Json.Null);
      Alcotest.(check (list string))
        "good cells still match the in-process engine"
        (local_summaries [ good1; good2 ])
        [
          Json.to_string results.(0).Client.summary;
          Json.to_string results.(2).Client.summary;
        ];
      Client.ping c;
      Client.close c)

(* One daemon run over [matrix_cells] with an access log (and [spans],
   if given), submitted under [trace]; returns the log's lines. *)
let access_log_run ?spans ~trace () =
  let log_path = Filename.temp_file "lev-access" ".jsonl" in
  let log_oc = open_out log_path in
  with_server ?spans ~access_log:log_oc (fun socket ->
      let c = Client.connect socket in
      let results, stats = Client.submit ~trace c matrix_cells in
      Alcotest.(check int) "nothing failed" 0 stats.Protocol.failed;
      Alcotest.(check (list string))
        "traced results bit-identical to the untraced engine"
        (local_summaries matrix_cells) (summaries results);
      Client.shutdown c;
      Client.close c);
  close_out log_oc;
  let lines = In_channel.with_open_text log_path In_channel.input_lines in
  Sys.remove log_path;
  lines

(* One well-formed access record per cell under [trace], whose stage
   durations — the engine's [simulate] included — are coherent. *)
let check_access_log ~trace lines =
  let module Schema = Levioso_telemetry.Schema in
  Alcotest.(check int) "one access record per cell" (List.length matrix_cells)
    (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.fail ("unparsable access record: " ^ msg)
      | Ok j ->
        (match Schema.check ~what:"access record" j with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
        Alcotest.(check string) "record kind" "levioso-serve-access"
          (match Json.member "kind" j with
          | Some (Json.String s) -> s
          | _ -> "");
        Alcotest.(check string) "record trace" trace
          (match Json.member "trace" j with
          | Some (Json.String s) -> s
          | _ -> "");
        let f name =
          match Json.member name j with
          | Some (Json.Float v) -> v
          | Some (Json.Int v) -> float_of_int v
          | _ -> Alcotest.fail (name ^ " missing from access record")
        in
        List.iter
          (fun s ->
            Alcotest.(check bool) (s ^ " non-negative") true (f s >= 0.))
          [ "queue_s"; "exec_s"; "simulate_s"; "serialize_s"; "total_s" ];
        Alcotest.(check bool) "queue + exec <= total" true
          (f "queue_s" +. f "exec_s" <= f "total_s" +. 1e-9))
    lines

(* End-to-end tracing: a traced daemon produces bit-identical results,
   the expected span tree (submit → cell → simulate) under the
   client-minted trace id, and one well-formed access record per cell
   whose stage durations are coherent.  A second daemon without a span
   collector writes the same access-log columns: the engine times its
   stages whether or not anything is traced. *)
let test_traced_daemon () =
  let module Span = Levioso_telemetry.Span in
  let spans = Span.create () in
  let lines = access_log_run ~spans ~trace:"tr-test-1" () in
  let finished = Span.drain spans in
  let n = List.length matrix_cells in
  (* 1 submit + n cells + n simulate stages (no store, so no probes) *)
  Alcotest.(check int) "span count" ((2 * n) + 1) (List.length finished);
  List.iter
    (fun (sp : Span.finished) ->
      Alcotest.(check string)
        (sp.Span.name ^ " carries the client's trace id") "tr-test-1"
        sp.Span.trace)
    finished;
  (match List.filter (fun (sp : Span.finished) -> sp.Span.parent = -1) finished with
  | [ root ] ->
    Alcotest.(check string) "root is the submit span" "submit" root.Span.name;
    let cell_spans =
      List.filter (fun (sp : Span.finished) -> sp.Span.name = "cell") finished
    in
    Alcotest.(check int) "one cell span per cell" n (List.length cell_spans);
    List.iter
      (fun (sp : Span.finished) ->
        Alcotest.(check int)
          "cell hangs off the submit span" root.Span.id sp.Span.parent)
      cell_spans;
    let cell_ids = List.map (fun (sp : Span.finished) -> sp.Span.id) cell_spans in
    List.iter
      (fun (sp : Span.finished) ->
        if sp.Span.name = "simulate" then
          Alcotest.(check bool) "simulate hangs off a cell span" true
            (List.mem sp.Span.parent cell_ids))
      finished
  | _ -> Alcotest.fail "expected exactly one root span");
  check_access_log ~trace:"tr-test-1" lines;
  check_access_log ~trace:"tr-test-2" (access_log_run ~trace:"tr-test-2" ())

let test_bounded_queue_backpressure () =
  (* queue bound of 1 with 2 workers: submissions block instead of
     queueing arbitrarily, and the batch still completes in order *)
  with_server ~queue_max:1 (fun socket ->
      let c = Client.connect socket in
      let cells =
        List.init 6 (fun i ->
            cell ~config:{ Config.default with Config.rob_size = 64 + i } ())
      in
      let results, stats = Client.submit c cells in
      Alcotest.(check int) "all cells computed" 6 stats.Protocol.simulated;
      Alcotest.(check (list string))
        "bounded-queue results match local"
        (local_summaries cells) (summaries results);
      Client.close c)

(* Continuous telemetry end-to-end: a daemon run with history enabled
   returns bit-identical results, records monotone samples carrying the
   expected operational fields, and leaves on-disk segments a cold
   reader can parse after shutdown.  [Client.history] reads the
   directory the daemon names while the daemon appends to it: up to a
   sample already written, it reads what [Tsdb.read_dir] reads. *)
let test_history_daemon () =
  let dir = Filename.temp_file "lev-history" "" in
  Sys.remove dir;
  let history = { Server.history_dir = dir; history_interval_s = 0.05 } in
  with_server ~history (fun socket ->
      let c = Client.connect socket in
      let results, stats = Client.submit c matrix_cells in
      Alcotest.(check int) "nothing failed" 0 stats.Protocol.failed;
      Alcotest.(check (list string))
        "history-on results bit-identical to the local engine"
        (local_summaries matrix_cells) (summaries results);
      (* let the sampler tick a few times past the submission *)
      Thread.delay 0.2;
      let samples = Client.history c in
      Alcotest.(check bool) "at least one sample" true (samples <> []);
      let rec monotone = function
        | (a : Tsdb.sample) :: (b :: _ as rest) ->
          a.Tsdb.ts <= b.Tsdb.ts && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "timestamps monotone" true (monotone samples);
      let last = List.nth samples (List.length samples - 1) in
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " sampled") true
            (List.mem_assoc field last.Tsdb.fields))
        [ "uptime_s"; "queue_depth"; "clients"; "requests"; "gc_heap_words" ];
      (match List.assoc_opt "requests" last.Tsdb.fields with
      | Some v -> Alcotest.(check bool) "requests counted" true (v >= 1.)
      | None -> Alcotest.fail "requests field missing");
      Alcotest.(check int) "last-N truncation" 1
        (List.length (Client.history ~last:1 c));
      let until = last.Tsdb.ts in
      Alcotest.(check bool) "live and offline reads agree up to a written sample"
        true
        (Tsdb.read_dir ~until dir = Ok (Client.history ~until c));
      Client.shutdown c;
      Client.close c;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Sys.file_exists socket && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done);
  (* cold read after shutdown: segments parse and end with the final
     sample the shutdown path appends *)
  match Tsdb.read_dir dir with
  | Error msg -> Alcotest.fail msg
  | Ok samples ->
    Alcotest.(check bool) "cold read sees at least two samples" true
      (List.length samples >= 2)

(* The daemon's three metric surfaces, pinned by shape: the stats
   frame's key paths (with each value's JSON kind), the last tsdb
   sample's field names and the OpenMetrics lines, all in order with
   values masked.  The histogram bucket fields of a sample depend on the
   measured latency, so consecutive [total_le_*] names collapse to one.
   Four readings of the end-to-end observation count must agree. *)
let test_metric_surfaces_pinned () =
  let dir = Filename.temp_file "lev-surfaces" "" in
  Sys.remove dir;
  let metrics = Filename.temp_file "lev-surfaces" ".prom" in
  let monitor = Monitor.create ~metrics_path:metrics ~label:"levioso_serve" () in
  let history = { Server.history_dir = dir; history_interval_s = 0.05 } in
  let cells = [ cell (); cell ~policy:"levioso" () ] in
  let stats =
    with_server ~monitor ~history (fun socket ->
        let c = Client.connect socket in
        let _, done_ = Client.submit c cells in
        Alcotest.(check int) "nothing failed" 0 done_.Protocol.failed;
        let stats = Client.stats c in
        Client.close c;
        stats)
  in
  let kind = function
    | Json.Null -> "null"
    | Json.Bool _ -> "bool"
    | Json.Int _ -> "int"
    | Json.Float _ -> "float"
    | Json.String _ -> "string"
    | Json.List _ -> "list"
    | Json.Obj _ -> "obj"
  in
  let rec paths prefix = function
    | Json.Obj fields ->
      List.concat_map (fun (k, v) -> paths (prefix ^ k ^ ".") v) fields
    | v -> [ String.sub prefix 0 (String.length prefix - 1) ^ ":" ^ kind v ]
  in
  let stage_paths stage =
    List.map
      (fun k -> "latency." ^ stage ^ "." ^ k)
      [ "seen:int"; "window:int"; "p50_s:float"; "p95_s:float"; "p99_s:float" ]
  in
  Alcotest.(check (list string))
    "stats frame key paths"
    ([
       "schema_version:int"; "kind:string"; "proto:int"; "pool:int";
       "queue_max:null"; "cache_dir:null"; "history_dir:string";
       "uptime_s:float"; "requests:int";
       "errors:int"; "gauges.serve_queue_depth:float";
       "gauges.serve_inflight:float"; "gauges.serve_clients:float";
       "gauges.serve_cells_simulated:float"; "gauges.serve_cells_cached:float";
       "gauges.serve_requests:float"; "gauges.serve_errors:float";
     ]
    @ List.concat_map stage_paths [ "queue"; "exec"; "serialize"; "total" ])
    (paths "" stats);
  let samples =
    match Tsdb.read_dir dir with
    | Ok samples -> samples
    | Error msg -> Alcotest.fail msg
  in
  let last = List.nth samples (List.length samples - 1) in
  let names =
    List.fold_right
      (fun (name, _) acc ->
        let name =
          if String.starts_with ~prefix:"total_le_" name then "total_le_*"
          else name
        in
        match acc with n :: _ when n = name -> acc | _ -> name :: acc)
      last.Tsdb.fields []
  in
  let stage_fields suffixes stage = List.map (fun s -> stage ^ s) suffixes in
  let stages = [ "queue"; "exec"; "serialize"; "total" ] in
  Alcotest.(check (list string))
    "tsdb sample field names"
    ([
       "uptime_s"; "queue_depth"; "inflight"; "clients"; "cells_simulated";
       "cells_cached"; "requests"; "errors";
     ]
    @ List.concat_map
        (stage_fields [ "_seen"; "_p50_s"; "_p95_s"; "_p99_s" ])
        stages
    @ List.concat_map (stage_fields [ "_hist_count"; "_hist_sum_s" ]) stages
    @ [
        "total_le_*"; "gc_heap_words"; "gc_top_heap_words";
        "gc_minor_collections"; "gc_major_collections"; "gc_minor_words";
        "gc_promoted_words"; "requests_per_s"; "errors_per_s"; "cells_per_s";
        "cache_hit_share";
      ])
    names;
  let text = In_channel.with_open_bin metrics In_channel.input_all in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let masked =
    List.map
      (fun line ->
        if String.starts_with ~prefix:"#" line then line
        else String.sub line 0 (String.rindex line ' ') ^ " _")
      lines
  in
  let job = "{job=\"levioso_serve\"}" in
  let gauge name help =
    [
      "# TYPE levioso_" ^ name ^ " gauge";
      "# HELP levioso_" ^ name ^ " " ^ help;
      "levioso_" ^ name ^ job ^ " _";
    ]
  in
  let histogram stage =
    let name = "levioso_serve_" ^ stage ^ "_seconds" in
    [
      "# TYPE " ^ name ^ " histogram";
      "# HELP " ^ name ^ " Per-cell " ^ stage ^ " latency, seconds.";
    ]
    @ List.map
        (fun le ->
          Printf.sprintf "%s_bucket{job=\"levioso_serve\",le=\"%s\"} _" name le)
        ([
           "1e-06"; "2.5e-06"; "5e-06"; "1e-05"; "2.5e-05"; "5e-05"; "0.0001";
           "0.00025"; "0.0005"; "0.001"; "0.0025"; "0.005"; "0.01"; "0.025";
           "0.05"; "0.1"; "0.25"; "0.5"; "1"; "2.5"; "5"; "10"; "25"; "50";
           "100";
         ]
        @ [ "+Inf" ])
    @ [ name ^ "_sum" ^ job ^ " _"; name ^ "_count" ^ job ^ " _" ]
  in
  Alcotest.(check (list string))
    "OpenMetrics lines"
    (gauge "progress_done" "Items completed."
    @ gauge "progress_total" "Items planned."
    @ gauge "progress_elapsed_seconds" "Wall clock since start."
    @ gauge "uptime_seconds"
        "Wall clock seconds since this process's monitor started."
    @ gauge "gc_heap_words" "Major heap size, words."
    @ gauge "gc_top_heap_words" "Largest major heap size reached, words."
    @ gauge "gc_minor_collections" "Minor collections since start."
    @ gauge "gc_major_collections" "Major collection cycles since start."
    @ gauge "gc_minor_words" "Words allocated in the minor heap since start."
    @ gauge "serve_queue_depth" "Tasks waiting for a pool worker."
    @ gauge "serve_inflight" "Cells currently being computed."
    @ gauge "serve_clients" "Connected clients."
    @ gauge "serve_cells_simulated" "Cells simulated since daemon start."
    @ gauge "serve_cells_cached" "Cells replayed from the shard store."
    @ gauge "serve_requests" "Requests handled since daemon start."
    @ gauge "serve_errors" "Cells and frames that failed since daemon start."
    @ List.concat_map histogram stages
    @ [ "# EOF" ])
    masked;
  let n = float_of_int (List.length cells) in
  let field name =
    match List.assoc_opt name last.Tsdb.fields with
    | Some v -> v
    | None -> Alcotest.failf "sample has no %s" name
  in
  let om_count =
    let prefix = "levioso_serve_total_seconds_count" ^ job ^ " " in
    match List.find_opt (String.starts_with ~prefix) lines with
    | Some l ->
      float_of_string
        (String.sub l (String.length prefix)
           (String.length l - String.length prefix))
    | None -> Alcotest.fail "no total count line"
  in
  Alcotest.(check (list (float 0.)))
    "stats seen, sample seen, sample hist count, OpenMetrics count"
    [ n; n; n; n ]
    [
      float_of_int
        Json.(get (get (get to_int_exn "seen") "total") "latency" stats);
      field "total_seen"; field "total_hist_count"; om_count;
    ]

let test_history_unavailable () =
  with_server (fun socket ->
      let c = Client.connect socket in
      (match Client.history c with
      | exception Client.Server_error msg ->
        Alcotest.(check bool) "error names the missing flag" true
          (contains msg "--history-out")
      | _ -> Alcotest.fail "history without --history-out should error");
      Client.close c)

(* A daemon on [opts] whose start-up must fail: [Server.run] raises
   before serving and leaves no socket file; the exception's message is
   returned.  A daemon that comes up anyway is shut down from another
   thread (the accept loop runs in this one) and fails the test. *)
let refused_start ?cache ?monitor ?history what =
  let socket_path = Filename.temp_file "lev-serve" ".sock" in
  Sys.remove socket_path;
  let opts =
    {
      Server.socket_path;
      pool_size = 1;
      queue_max = None;
      cache;
      monitor;
      log = None;
      spans = None;
      access_log = None;
      history;
    }
  in
  let stop () =
    let c = Client.connect socket_path in
    Client.shutdown c;
    Client.close c
  in
  match Server.run opts ~on_ready:(fun () -> ignore (Thread.create stop ())) with
  | () -> Alcotest.failf "%s: the daemon served" what
  | exception (Sys_error msg | Failure msg) ->
    Alcotest.(check bool) (what ^ ": no socket left") false
      (Sys.file_exists socket_path);
    msg

(* A path under a regular file: no directory can be made there. *)
let under_a_file name =
  let file = Filename.temp_file "lev-not-a-dir" "" in
  Filename.concat file name

(* An unusable --history-out stops the daemon before it binds, with the
   directory named; it no longer serves with a dead sampler thread. *)
let test_history_dir_unusable () =
  let dir = under_a_file "sub" in
  let msg =
    refused_start "history"
      ~history:{ Server.history_dir = dir; history_interval_s = 0.05 }
  in
  Alcotest.(check string) "the error names the directory"
    (dir ^ ": Not a directory") msg

(* An unusable store directory stops the daemon before it binds, and
   bench before its first cell; neither fails cell by cell at the
   store. *)
let test_cache_dir_unusable () =
  let dir = under_a_file "cache" in
  let msg =
    refused_start "cache" ~cache:(Run_cache.create ~stamp:"t" ~dir ())
  in
  Alcotest.(check string) "the error names the directory"
    (dir ^ ": Not a directory") msg;
  let tmp = Filename.temp_dir "levioso_serve" "" in
  (match
     Test_cli.run_program ~tmp "bench/main.exe"
       [ "--quick"; "--only"; "fig3"; "-j"; "1"; "--cache-dir"; dir ]
   with
  | 1, "", [ line ] ->
    Alcotest.(check string) "bench names the directory"
      ("bench: " ^ dir ^ ": Not a directory") line
  | rc, _, err ->
    Alcotest.failf "bench --cache-dir %s: exit %d: %s" dir rc
      (String.concat " | " err));
  Sys.rmdir tmp

(* The first metrics write fails after the socket is bound: the daemon
   unbinds before it raises. *)
let test_metrics_unwritable () =
  let path = "/nonexistent/dir/m.prom" in
  let monitor = Monitor.create ~metrics_path:path ~label:"levioso_serve" () in
  let msg = refused_start "metrics" ~monitor in
  Alcotest.(check bool) ("the error names the file: " ^ msg) true
    (String.starts_with ~prefix:(path ^ ": ") msg)

(* A config whose create would need gigabytes (a 100000-entry window
   squares into 4.3 GB of wake rows) is refused by validation: that cell
   gets its own error frame and the rest of the batch runs. *)
let test_oversized_config_cell () =
  with_server (fun socket ->
      let c = Client.connect socket in
      let huge = cell ~config:{ Config.default with Config.rob_size = 100_000 } () in
      let results, stats = Client.submit c [ cell (); huge; cell () ] in
      Alcotest.(check int) "one cell failed" 1 stats.Protocol.failed;
      Alcotest.(check (list string)) "sources" [ "sim"; "error"; "sim" ]
        (Array.to_list
           (Array.map (fun (r : Client.result_cell) -> r.Client.source) results));
      (match results.(1).Client.error with
      | Some msg ->
        Alcotest.(check bool) ("error names rob_size: " ^ msg) true
          (contains msg "rob_size")
      | None -> Alcotest.fail "oversized cell has no error");
      Client.close c)

(* A request line one byte over [Protocol.max_frame_bytes] gets an error
   frame and its connection is closed; the next client is served. *)
let test_frame_cap () =
  with_server (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      let response () =
        match Protocol.read_frame ic with
        | Ok (Some j) -> Protocol.response_of_json j
        | Ok None -> Alcotest.fail "connection closed before a response"
        | Error msg -> Alcotest.fail msg
      in
      (match response () with
      | Ok (Protocol.Hello _) -> ()
      | _ -> Alcotest.fail "no hello");
      output_string oc (String.make (Protocol.max_frame_bytes + 1) 'x');
      output_char oc '\n';
      flush oc;
      (match response () with
      | Ok (Protocol.Error msg) ->
        Alcotest.(check bool) ("error names the cap: " ^ msg) true
          (contains msg (string_of_int Protocol.max_frame_bytes))
      | _ -> Alcotest.fail "over-cap frame got no error frame");
      Alcotest.(check bool) "connection closed" true
        (Protocol.read_frame ic = Ok None);
      Unix.close fd;
      let c = Client.connect socket in
      Client.ping c;
      Client.close c)

(* [levioso_serve stress] sends its whole sweep as one submit frame: the
   largest sweep must be cells the daemon accepts, in a frame it reads.
   The bound is checked with the longest workload and policy names the
   catalog has, and the longest id and trace a client can mint (the
   largest Linux pid). *)
let test_stress_sweep_bound () =
  let longest names =
    List.fold_left
      (fun a b -> if String.length b > String.length a then b else a)
      "" names
  in
  let workload = longest (Catalog.workload_names ())
  and policy = longest (Catalog.policies ()) in
  let cells = Client.sweep ~workload ~policy Client.max_sweep in
  Alcotest.(check int) "one cell per ROB size from 64 to the largest"
    (Config.largest.Config.rob_size - 63)
    (List.length cells);
  List.iter
    (fun (c : Protocol.cell) ->
      match Config.validate c.Protocol.config with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "ROB %d: %s" c.Protocol.config.Config.rob_size msg)
    cells;
  let frame =
    Json.to_string ~minify:true
      (Protocol.request_to_json
         (Protocol.Submit
            {
              id = "req-4194304-4194304";
              cache = false;
              trace = Some "tr-4194304-4194304";
              cells;
            }))
  in
  let bytes = String.length frame + 1 in
  Printf.printf "%d cells of %s/%s: a %d-byte frame\n" Client.max_sweep
    workload policy bytes;
  if bytes > Protocol.max_frame_bytes then
    Alcotest.failf "%d cells of %s/%s take %d bytes, over the %d-byte cap"
      Client.max_sweep workload policy bytes Protocol.max_frame_bytes;
  List.iter
    (fun n ->
      match Client.sweep ~workload ~policy n with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "a sweep of %d cells was built" n)
    [ 0; Client.max_sweep + 1 ]

(* levioso_sim --remote runs its matrix through the daemon and prints
   the bytes of the local run: plain, audited and sampled cells, as the
   --json document and as the -v report.  Its stderr is the one timing
   line, so no cell fell back to a local run.  The flags that trace a
   local pipeline refuse --remote. *)
let test_sim_remote_one_path () =
  let dir = Filename.temp_dir "levioso_serve" "" in
  let sim args =
    match Test_cli.run_program ~tmp:dir "bin/levioso_sim.exe" args with
    | 0, out, err -> (out, err)
    | rc, _, err ->
      Alcotest.failf "levioso_sim %s: exit %d: %s" (String.concat " " args) rc
        (String.concat " | " err)
  in
  with_server (fun socket ->
      List.iter
        (fun extra ->
          List.iter
            (fun mode ->
              let args =
                [ "-w"; "stream"; "-p"; "unsafe"; "-p"; "levioso"; mode ] @ extra
              in
              let what = String.concat " " (mode :: extra) in
              let local, local_err = sim args in
              let remote, remote_err = sim ("--remote" :: socket :: args) in
              Alcotest.(check (list string)) (what ^ ": local stderr") [] local_err;
              Alcotest.(check string) (what ^ ": same bytes") local remote;
              match remote_err with
              | [ line ] when String.starts_with ~prefix:"--remote: trace " line -> ()
              | lines ->
                Alcotest.failf "%s: remote stderr: %s" what (String.concat " | " lines))
            [ "--json"; "-v" ])
        [ []; [ "--audit" ]; [ "--sample"; "1000:500:4" ] ]);
  (* the per-event streams need a local pipeline: a usage error *)
  List.iter
    (fun flag ->
      let args =
        [ "--remote"; "/nonexistent.sock"; "-w"; "spectre-v1"; "-p"; "unsafe" ] @ flag
      in
      match Test_cli.run_program ~tmp:dir "bin/levioso_sim.exe" args with
      | 124, "", first :: _
        when String.starts_with ~prefix:"levioso_sim: --remote runs every cell" first
        -> ()
      | rc, _, err ->
        Alcotest.failf "levioso_sim %s: exit %d: %s" (String.concat " " args) rc
          (String.concat " | " err))
    [
      [ "--trace"; "3" ];
      [ "--trace-out"; "t.json" ];
      [ "--audit-out"; "a.json" ];
      [ "--timeline"; "t.kanata" ];
      [ "--leak-trace"; "l.txt" ];
    ];
  Sys.rmdir dir

(* The --remote path runs a cell the daemon failed (here a ROB the
   daemon's validation refuses) through the caller's local function, in
   its place in the matrix. *)
let test_run_matrix_fallback () =
  with_server (fun socket ->
      let huge = cell ~config:{ Config.default with Config.rob_size = 100_000 } () in
      let ran_here = ref [] in
      let results =
        Levioso_cli.Cli.run_matrix ~prog:"test" ~remote:socket ~jobs:1
          ~local:(fun c ->
            ran_here := c :: !ran_here;
            "here")
          ~of_remote:(fun r -> r.Client.source)
          [ cell (); huge; cell ~policy:"levioso" () ]
      in
      Alcotest.(check (list string)) "results in matrix order"
        [ "sim"; "here"; "sim" ] results;
      Alcotest.(check bool) "only the failed cell ran here" true (!ran_here = [ huge ]))

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: cell round-trip" `Quick
        test_cell_round_trip;
      Alcotest.test_case "protocol: request round-trip" `Quick
        test_request_round_trip;
      Alcotest.test_case "protocol: response round-trip" `Quick
        test_response_round_trip;
      Alcotest.test_case "protocol: frame-tag strictness" `Quick
        test_frame_tag_strictness;
      Alcotest.test_case "protocol: optional-field back-compat" `Quick
        test_optional_field_back_compat;
      Alcotest.test_case "catalog: one name set" `Quick test_catalog;
      Alcotest.test_case "engine: cell validation" `Quick test_engine_validate;
      Alcotest.test_case "engine: deterministic + cache replay" `Quick
        test_engine_deterministic_and_cached;
      Alcotest.test_case "engine: estimates never cached" `Quick
        test_engine_never_caches_estimates;
      Alcotest.test_case "daemon: end-to-end exchange" `Quick
        test_server_end_to_end;
      Alcotest.test_case "daemon: 4 concurrent clients bit-identical" `Quick
        test_concurrent_clients_bit_identical;
      Alcotest.test_case "daemon: bounded-queue backpressure" `Quick
        test_bounded_queue_backpressure;
      Alcotest.test_case "daemon: mixed batch partial failure" `Quick
        test_mixed_batch_partial_failure;
      Alcotest.test_case "daemon: traced end-to-end" `Quick test_traced_daemon;
      Alcotest.test_case "daemon: continuous telemetry end-to-end" `Quick
        test_history_daemon;
      Alcotest.test_case "daemon: history without --history-out" `Quick
        test_history_unavailable;
      Alcotest.test_case "daemon: metric surfaces pinned" `Quick
        test_metric_surfaces_pinned;
      Alcotest.test_case "daemon: unusable --history-out refuses to start"
        `Quick test_history_dir_unusable;
      Alcotest.test_case "daemon + bench: unusable --cache-dir refuses to start"
        `Quick test_cache_dir_unusable;
      Alcotest.test_case "daemon: unwritable --metrics leaves no socket" `Quick
        test_metrics_unwritable;
      Alcotest.test_case "daemon: oversized config is a cell error" `Quick
        test_oversized_config_cell;
      Alcotest.test_case "daemon: over-cap frame is refused" `Quick
        test_frame_cap;
      Alcotest.test_case "stress: the largest sweep fits one frame" `Quick
        test_stress_sweep_bound;
      Alcotest.test_case "levioso_sim --remote is one path" `Quick
        test_sim_remote_one_path;
      Alcotest.test_case "Cli.run_matrix: a failed cell runs here" `Quick
        test_run_matrix_fallback;
    ] )
