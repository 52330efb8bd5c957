(* The simulation-as-a-service stack: wire-protocol round-trips and
   frame-tag strictness, the shared workload/policy catalog, engine
   determinism against the in-process path, and a live daemon on a temp
   socket exercised by sequential and concurrent clients (equality of
   every client's results with a local run, cache replay on
   resubmission, prune, graceful shutdown). *)

module Config = Levioso_uarch.Config
module Run_cache = Levioso_uarch.Run_cache
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Json = Levioso_telemetry.Json
module Tsdb = Levioso_telemetry.Tsdb
module Alerts = Levioso_telemetry.Alerts
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
  check "prune" (Protocol.Prune 30);
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
  check "pruned" (Protocol.Pruned 3);
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

let with_server ?queue_max ?cache_dir ?spans ?access_log ?history f =
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
            monitor = None;
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
      (* an invalid cell becomes its own error result — the batch
         completes and the connection survives *)
      let bad_results, bad_stats = Client.submit c [ cell ~workload:"no-such" () ] in
      Alcotest.(check int) "invalid cell counted as failed" 1
        bad_stats.Protocol.failed;
      Alcotest.(check string) "invalid cell source" "error"
        bad_results.(0).Client.source;
      Alcotest.(check bool) "invalid cell carries an error" true
        (bad_results.(0).Client.error <> None);
      (* the runs document of a partly failed batch leaves the failed
         cell out, so the rest still decodes for reports *)
      let mixed, _ = Client.submit c [ cell (); cell ~workload:"no-such" () ] in
      (match Summary.read_runs (Client.runs mixed) with
      | Ok runs ->
        Alcotest.(check (list (pair string string)))
          "runs document keeps the good cell"
          [ ("stream", "unsafe") ]
          (List.map (fun (r : Summary.run) -> (r.workload, r.policy)) runs)
      | Error msg -> Alcotest.fail msg);
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
        captured)

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

(* End-to-end tracing: a traced daemon produces bit-identical results,
   the expected span tree (submit → cell → simulate) under the
   client-minted trace id, and one well-formed access record per cell
   whose stage durations are coherent. *)
let test_traced_daemon () =
  let module Span = Levioso_telemetry.Span in
  let module Schema = Levioso_telemetry.Schema in
  let spans = Span.create () in
  let log_path = Filename.temp_file "lev-access" ".jsonl" in
  let log_oc = open_out log_path in
  with_server ~spans ~access_log:log_oc (fun socket ->
      let c = Client.connect socket in
      let results, stats = Client.submit ~trace:"tr-test-1" c matrix_cells in
      Alcotest.(check int) "nothing failed" 0 stats.Protocol.failed;
      Alcotest.(check (list string))
        "traced results bit-identical to the untraced engine"
        (local_summaries matrix_cells) (summaries results);
      Client.shutdown c;
      Client.close c);
  close_out log_oc;
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
  let ic = open_in log_path in
  let rec read_lines acc =
    match input_line ic with
    | line -> read_lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read_lines [] in
  close_in ic;
  Sys.remove log_path;
  Alcotest.(check int) "one access record per cell" n (List.length lines);
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
        Alcotest.(check string) "record trace" "tr-test-1"
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
   expected operational fields, fires the configured alert once traffic
   arrives, answers the history request (with last-N truncation), and
   leaves on-disk segments a cold reader can parse after shutdown. *)
let test_history_daemon () =
  let dir = Filename.temp_file "lev-history" "" in
  Sys.remove dir;
  let alert_rules =
    match Alerts.parse "requests > 0\n" with
    | Ok rules -> rules
    | Error msg -> Alcotest.fail msg
  in
  let history =
    { Server.history_dir = dir; history_interval_s = 0.05; alert_rules }
  in
  with_server ~history (fun socket ->
      let c = Client.connect socket in
      let results, stats = Client.submit c matrix_cells in
      Alcotest.(check int) "nothing failed" 0 stats.Protocol.failed;
      Alcotest.(check (list string))
        "history-on results bit-identical to the local engine"
        (local_summaries matrix_cells) (summaries results);
      (* let the sampler tick a few times past the submission *)
      Thread.delay 0.2;
      let records =
        match Protocol.history_records (Client.history c) with
        | Ok records -> records
        | Error msg -> Alcotest.fail msg
      in
      let samples = Tsdb.samples records in
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
      let firing =
        List.exists
          (function
            | Tsdb.Alert a -> a.Tsdb.rule = "requests > 0" && a.Tsdb.firing
            | Tsdb.Sample _ -> false)
          records
      in
      Alcotest.(check bool) "requests > 0 alert fired" true firing;
      Alcotest.(check int) "last-N truncation" 1
        (List.length
           (match Protocol.history_records (Client.history ~last:1 c) with
           | Ok records -> records
           | Error msg -> Alcotest.fail msg));
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
  | Ok records ->
    Alcotest.(check bool) "cold read sees at least two samples" true
      (List.length (Tsdb.samples records) >= 2)

let test_history_unavailable () =
  with_server (fun socket ->
      let c = Client.connect socket in
      (match Client.history c with
      | exception Client.Server_error msg ->
        Alcotest.(check bool) "error names the missing flag" true
          (contains msg "--history-out")
      | _ -> Alcotest.fail "history without --history-out should error");
      Client.close c)

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
      Alcotest.test_case "daemon: oversized config is a cell error" `Quick
        test_oversized_config_cell;
      Alcotest.test_case "daemon: over-cap frame is refused" `Quick
        test_frame_cap;
    ] )
