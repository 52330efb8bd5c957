(* The telemetry layer: JSON tree, stall attribution, trace sinks (with
   the exact bytes of the Chrome encoding), monitor exposition and schema
   tags — plus the end-to-end invariants the machine-readable simulator
   reports rely on. *)

module Json = Levioso_telemetry.Json
module Monitor = Levioso_telemetry.Monitor
module Stall = Levioso_telemetry.Stall
module Trace = Levioso_telemetry.Trace
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Summary = Levioso_uarch.Summary
module Parser = Levioso_ir.Parser
module Policy_registry = Levioso_core.Registry

(* --- Json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 1.5);
        ("string", Json.String "hi \"there\"\n");
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
      ]
  in
  let parsed = Json.of_string_exn (Json.to_string v) in
  Alcotest.(check bool) "pretty roundtrip" true (parsed = v);
  let parsed_min = Json.of_string_exn (Json.to_string ~minify:true v) in
  Alcotest.(check bool) "minified roundtrip" true (parsed_min = v)

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parsed invalid JSON: %s" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  let v = Json.of_string_exn {|{"a": {"b": [1, 2.5, "x"]}}|} in
  let b = Json.member_exn "b" (Json.member_exn "a" v) in
  (match Json.to_list_exn b with
  | [ x; y; z ] ->
    Alcotest.(check int) "int elem" 1 (Json.to_int_exn x);
    Alcotest.(check (float 1e-9)) "float elem" 2.5 (Json.to_float_exn y);
    Alcotest.(check string) "string elem" "x" (Json.to_string_exn z)
  | _ -> Alcotest.fail "wrong list shape");
  Alcotest.(check bool) "missing member" true (Json.member "zzz" v = None)

(* --- Stall attribution ---------------------------------------------- *)

let test_stall_table () =
  let t = Stall.create ~num_pcs:8 in
  for _ = 1 to 5 do
    Stall.charge t ~cause:Stall.Policy_gate ~pc:3
  done;
  for _ = 1 to 2 do
    Stall.charge t ~cause:Stall.Operand_wait ~pc:3
  done;
  Stall.charge t ~cause:Stall.Rob_full ~pc:0;
  Alcotest.(check int) "total" 8 (Stall.total t);
  Alcotest.(check int) "policy gate" 5 (Stall.count t Stall.Policy_gate);
  Alcotest.(check int) "per pc" 7 (Stall.per_pc_total t ~pc:3);
  (match Stall.top_k t ~k:2 with
  | [ (3, 7, causes); (0, 1, _) ] ->
    Alcotest.(check int) "cause split" 5 (List.assoc Stall.Policy_gate causes)
  | other ->
    Alcotest.failf "unexpected top_k shape (%d entries)" (List.length other));
  Alcotest.check_raises "pc bounds"
    (Invalid_argument "Stall.charge: pc 9 out of range") (fun () ->
      Stall.charge t ~cause:Stall.Exec_port ~pc:9)

(* A loop with a data-dependent branch and loads, so every policy has
   something to restrict. *)
let kernel_src =
  {|
    mov r1, #0
    mov r2, #0
  head:
    bge r1, #48, out
    load r3, [r1 + #256]
    blt r3, #6, skip
    load r4, [r3 + #512]
    add r2, r2, r4
  skip:
    add r1, r1, #1
    jump head
  out:
    halt
  |}

let run_kernel policy =
  let program = Parser.parse_exn kernel_src in
  let config = { Config.default with Config.mem_words = 65536 } in
  let pipe =
    Pipeline.create
      ~mem_init:(fun mem ->
        for i = 0 to 63 do
          mem.(256 + i) <- (i * 13) mod 11
        done)
      config
      ~policy:(Policy_registry.find_exn policy)
      program
  in
  Pipeline.run pipe;
  pipe

(* The invariant the JSON stall breakdown advertises: the Policy_gate
   charges are exactly the cycles the legacy counter observed — every
   per-cycle policy refusal is attributed, and nothing else lands in
   that bucket. *)
let test_attribution_matches_policy_stalls () =
  List.iter
    (fun policy ->
      let pipe = run_kernel policy in
      let stats = Pipeline.stats pipe in
      let stall = Pipeline.stall_attribution pipe in
      Alcotest.(check int)
        (policy ^ ": policy_gate = policy_stall_cycles")
        stats.Sim_stats.policy_stall_cycles
        (Stall.count stall Stall.Policy_gate);
      Alcotest.(check int)
        (policy ^ ": by_cause sums to total")
        (Stall.total stall)
        (List.fold_left ( + ) 0 (List.map snd (Stall.by_cause stall))))
    [ "unsafe"; "fence"; "delay"; "levioso" ]

let test_attribution_unsafe_has_no_policy_gate () =
  let stall = Pipeline.stall_attribution (run_kernel "unsafe") in
  Alcotest.(check int) "no gate charges" 0 (Stall.count stall Stall.Policy_gate);
  Alcotest.(check bool) "but stalls exist" true (Stall.total stall > 0)

let test_attribution_per_pc_consistency () =
  let stall = Pipeline.stall_attribution (run_kernel "delay") in
  let program_len = List.length (String.split_on_char '\n' kernel_src) in
  let sum = ref 0 in
  for pc = 0 to program_len do
    sum := !sum + Stall.per_pc_total stall ~pc
  done;
  Alcotest.(check int) "per-pc totals sum to total" (Stall.total stall) !sum;
  (* top_k is sorted descending and bounded *)
  let top = Stall.top_k stall ~k:3 in
  Alcotest.(check bool) "at most k" true (List.length top <= 3);
  let totals = List.map (fun (_, t, _) -> t) top in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) totals) totals

(* --- Trace sinks ---------------------------------------------------- *)

let mk_event i =
  { Trace.cycle = i; seq = i; pc = i mod 7; stage = "issue"; args = [] }

let test_trace_sampling () =
  let got = ref [] in
  let sink = Trace.of_fn ~every:3 (fun e -> got := e.Trace.cycle :: !got) in
  for i = 0 to 9 do
    Trace.emit sink (mk_event i)
  done;
  Trace.close sink;
  Alcotest.(check (list int)) "kept every 3rd" [ 0; 3; 6; 9 ] (List.rev !got);
  Alcotest.(check int) "seen" 10 (Trace.seen sink);
  Alcotest.(check int) "written" 4 (Trace.written sink)

let with_temp_trace ~format ~every emit_n =
  let file = Filename.temp_file "levioso_trace" ".out" in
  let oc = open_out file in
  let sink = Trace.to_channel ~every ~format oc in
  Trace.begin_process sink ~name:"test/run";
  for i = 0 to emit_n - 1 do
    Trace.emit sink (mk_event i)
  done;
  Trace.close sink;
  close_out oc;
  let ic = open_in file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  contents

let test_trace_chrome_format () =
  let contents = with_temp_trace ~format:Trace.Chrome ~every:1 5 in
  let j = Json.of_string_exn contents in
  let events = Json.to_list_exn (Json.member_exn "traceEvents" j) in
  (* 1 process_name metadata record + 5 events *)
  Alcotest.(check int) "event count" 6 (List.length events);
  let meta = List.hd events in
  Alcotest.(check string) "metadata" "process_name"
    (Json.to_string_exn (Json.member_exn "name" meta));
  let e = List.nth events 1 in
  Alcotest.(check string) "ph" "X" (Json.to_string_exn (Json.member_exn "ph" e));
  Alcotest.(check int) "ts" 0 (Json.to_int_exn (Json.member_exn "ts" e))

(* The exact bytes of a Chrome sink: five events covering omitted
   seq/pc, extra args and a track reused, and two process records. *)
let test_trace_chrome_bytes () =
  let events =
    [
      { Trace.cycle = 0; seq = 0; pc = 0; stage = "fetch"; args = [] };
      { Trace.cycle = 1; seq = 0; pc = 0; stage = "issue"; args = [] };
      {
        Trace.cycle = 3;
        seq = -1;
        pc = -1;
        stage = "squash";
        args = [ ("count", Json.Int 2) ];
      };
      {
        Trace.cycle = 4;
        seq = 1;
        pc = -1;
        stage = "resolve";
        args = [ ("taken", Json.Bool true) ];
      };
      { Trace.cycle = 5; seq = 2; pc = 5; stage = "issue"; args = [] };
    ]
  in
  let file = Filename.temp_file "levioso_trace" ".json" in
  Out_channel.with_open_bin file (fun oc ->
      let sink = Trace.to_channel ~format:Trace.Chrome oc in
      Trace.begin_process sink ~name:"stream/unsafe";
      List.iteri
        (fun i e ->
          if i = 3 then Trace.begin_process sink ~name:"stream/levioso";
          Trace.emit sink e)
        events;
      Trace.close sink);
  let got = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check string) "bytes"
    {|{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"stream/unsafe"}},
{"name":"fetch","cat":"sim","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"seq":0,"pc":0}},
{"name":"issue","cat":"sim","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"seq":0,"pc":0}},
{"name":"squash","cat":"sim","ph":"X","ts":3,"dur":1,"pid":1,"tid":2,"args":{"count":2}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"stream/levioso"}},
{"name":"resolve","cat":"sim","ph":"X","ts":4,"dur":1,"pid":2,"tid":3,"args":{"seq":1,"taken":true}},
{"name":"issue","cat":"sim","ph":"X","ts":5,"dur":1,"pid":2,"tid":1,"args":{"seq":2,"pc":5}}
]}
|}
    got

let test_trace_jsonl_format () =
  let contents = with_temp_trace ~format:Trace.Jsonl ~every:2 6 in
  let lines =
    String.split_on_char '\n' contents |> List.filter (fun l -> l <> "")
  in
  (* 1 process line + events 0, 2, 4 *)
  Alcotest.(check int) "line count" 4 (List.length lines);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable line %s: %s" l e)
    lines

let test_format_of_filename () =
  Alcotest.(check bool) "jsonl" true
    (Trace.format_of_filename "t.jsonl" = Trace.Jsonl);
  Alcotest.(check bool) "json" true
    (Trace.format_of_filename "t.json" = Trace.Chrome)

(* --- machine-readable summary (the --json schema) -------------------- *)

let test_summary_golden_keys () =
  let pipe = run_kernel "levioso" in
  let text =
    Json.to_string
      (Summary.runs [ Summary.of_pipeline ~workload:"kernel" ~policy:"levioso" pipe ])
  in
  (* must survive a print/parse roundtrip *)
  let j = Json.of_string_exn text in
  let run = List.hd (Json.to_list_exn (Json.member_exn "runs" j)) in
  Alcotest.(check string) "workload" "kernel"
    (Json.to_string_exn (Json.member_exn "workload" run));
  let stats = Json.member_exn "stats" run in
  List.iter
    (fun key -> ignore (Json.to_int_exn (Json.member_exn key stats)))
    [
      "cycles"; "committed"; "mispredicts"; "policy_stall_cycles";
      "transmit_stall_cycles"; "wrong_path_transmits"; "max_rob_occupancy";
    ];
  Alcotest.(check bool) "ipc positive" true
    (Json.to_float_exn (Json.member_exn "ipc" stats) > 0.0);
  let cache = Json.member_exn "cache" run in
  List.iter
    (fun key -> ignore (Json.to_int_exn (Json.member_exn key cache)))
    [ "l1_hits"; "l1_misses"; "l2_hits"; "l2_misses" ];
  let by_cause = Json.member_exn "by_cause" (Json.member_exn "stalls" run) in
  let cause_sum =
    List.fold_left
      (fun acc c ->
        acc
        + Json.to_int_exn (Json.member_exn (Stall.cause_to_string c) by_cause))
      0 Stall.all_causes
  in
  Alcotest.(check int) "stall sum consistent"
    (Json.to_int_exn
       (Json.member_exn "total" (Json.member_exn "stalls" run)))
    cause_sum;
  (* the acceptance-criterion consistency: gate charges = legacy counter *)
  Alcotest.(check int) "gate = policy_stall_cycles"
    (Json.to_int_exn (Json.member_exn "policy_stall_cycles" stats))
    (Json.to_int_exn (Json.member_exn "policy_gate" by_cause))

(* --- O(1) wrong-path transmit recording ------------------------------ *)

let test_wrong_path_counter_tracks_length () =
  let s = Sim_stats.create () in
  for i = 0 to 99 do
    Sim_stats.record_wrong_path_transmit s ~branch_pc:i ~pc:i
  done;
  Alcotest.(check int) "count field" 100 s.Sim_stats.wrong_path_transmit_count;
  Alcotest.(check int) "list length" 100
    (List.length s.Sim_stats.wrong_path_transmits)

(* --- schema versioning ---------------------------------------------- *)

module Schema = Levioso_telemetry.Schema

let test_schema_tag_and_check () =
  let tagged = Schema.tag [ ("x", Json.Int 1) ] in
  Alcotest.(check bool) "tagged passes" true (Schema.check tagged = Ok ());
  Alcotest.(check int)
    "version field first"
    Schema.version
    (Json.to_int_exn (Json.member_exn "schema_version" tagged));
  Alcotest.(check bool)
    "untagged fails" true
    (Result.is_error (Schema.check (Json.Obj [ ("x", Json.Int 1) ])));
  Alcotest.(check bool)
    "wrong version fails" true
    (Result.is_error
       (Schema.check
          (Json.Obj [ ("schema_version", Json.Int (Schema.version + 1)) ])));
  match Schema.check ~what:"history" (Json.Obj []) with
  | Error msg ->
    Alcotest.(check bool)
      "error names the artifact" true
      (String.length msg >= 7 && String.sub msg 0 7 = "history")
  | Ok () -> Alcotest.fail "expected a version error"

(* --- non-finite float policy ----------------------------------------- *)

let test_json_nonfinite_policy () =
  Alcotest.(check bool) "nan sanitizes" true (Json.float Float.nan = Json.Null);
  Alcotest.(check bool)
    "inf sanitizes" true
    (Json.float Float.infinity = Json.Null);
  Alcotest.(check bool)
    "-inf sanitizes" true
    (Json.float Float.neg_infinity = Json.Null);
  Alcotest.(check bool) "finite passes" true (Json.float 2.5 = Json.Float 2.5);
  List.iter
    (fun f ->
      match Json.to_string (Json.Obj [ ("x", Json.Float f) ]) with
      | (_ : string) -> Alcotest.fail "printing a non-finite float must raise"
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Every tree the sanitizing constructors can build survives a print ->
   parse round trip bit-exactly (generator restricted to exactly
   representable floats). *)
let test_json_roundtrip_property () =
  for seed = 0 to 249 do
    let v = Levioso_fuzz.Gen.json seed in
    List.iter
      (fun minify ->
        match Json.of_string (Json.to_string ~minify v) with
        | Ok parsed ->
          if parsed <> v then
            Alcotest.failf "seed %d (minify %b): %s reparsed as %s" seed minify
              (Json.to_string ~minify:true v)
              (Json.to_string ~minify:true parsed)
        | Error msg ->
          Alcotest.failf "seed %d (minify %b): parse error %s" seed minify msg)
      [ false; true ]
  done

(* --- monitor gauges / OpenMetrics exposition -------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_monitor_gauge_sanitization () =
  let m = Monitor.create ~label:"t" () in
  (* a hostile name must come out in the OpenMetrics charset *)
  Monitor.set_gauge m ~help:"weird" "queue depth (cells)!" 3.;
  let text = Monitor.openmetrics m in
  Alcotest.(check bool) "name sanitized to the metric charset" true
    (contains text "levioso_queue_depth__cells__{job=\"t\"} 3");
  Alcotest.(check bool) "raw name absent" false
    (contains text "queue depth (cells)");
  (* sanitized collisions update in place rather than duplicating *)
  Monitor.set_gauge m "queue depth {cells}!" 7.;
  let text = Monitor.openmetrics m in
  Alcotest.(check bool) "collided name updated, not duplicated" true
    (contains text "levioso_queue_depth__cells__{job=\"t\"} 7"
    && not (contains text "levioso_queue_depth__cells__{job=\"t\"} 3"));
  Monitor.close m

let test_monitor_help_escaping () =
  let m = Monitor.create ~label:"t" () in
  Monitor.set_gauge m ~help:"line one\nline two \\ slash" "g" 1.;
  let text = Monitor.openmetrics m in
  (* the newline must be escaped or the exposition format is corrupt *)
  Alcotest.(check bool) "HELP newline escaped" true
    (contains text "line one\\nline two");
  Alcotest.(check bool) "HELP backslash escaped" true
    (contains text "\\\\ slash");
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        Alcotest.(check bool)
          ("sample line well-formed: " ^ line)
          true
          (contains line "levioso_" || line = "# EOF"))
    (String.split_on_char '\n' text);
  Monitor.close m

let test_monitor_metric_ordering_stable () =
  let m = Monitor.create ~label:"t" () in
  Monitor.set_gauge m "alpha" 1.;
  Monitor.set_gauge m "beta" 2.;
  Monitor.set_gauge m "gamma" 3.;
  let order text =
    List.filter_map
      (fun name ->
        let rec find i =
          if i + String.length name > String.length text then None
          else if String.sub text i (String.length name) = name then Some i
          else find (i + 1)
        in
        find 0 |> Option.map (fun i -> (i, name)))
      [ "levioso_alpha"; "levioso_beta"; "levioso_gamma" ]
    |> List.sort compare
    |> List.map snd
  in
  let before = order (Monitor.openmetrics m) in
  Alcotest.(check (list string)) "insertion order"
    [ "levioso_alpha"; "levioso_beta"; "levioso_gamma" ]
    before;
  (* updating an early gauge must not reshuffle the exposition *)
  Monitor.set_gauge m "beta" 9.;
  Monitor.set_gauge m "alpha" 8.;
  Alcotest.(check (list string)) "stable across updates" before
    (order (Monitor.openmetrics m));
  Monitor.close m

let test_monitor_histogram_exposition () =
  let m = Monitor.create ~label:"t" () in
  Monitor.set_histogram m ~help:"latency" "lat_seconds"
    ~buckets:[ (0.001, 2); (0.01, 5) ]
    ~sum:0.025 ~count:6;
  let text = Monitor.openmetrics m in
  Alcotest.(check bool) "TYPE histogram declared" true
    (contains text "# TYPE levioso_lat_seconds histogram");
  Alcotest.(check bool) "le buckets rendered" true
    (contains text "levioso_lat_seconds_bucket{"
    && contains text "le=\"0.001\"} 2"
    && contains text "le=\"0.01\"} 5");
  Alcotest.(check bool) "+Inf bucket carries the total count" true
    (contains text "le=\"+Inf\"} 6");
  Alcotest.(check bool) "sum and count series" true
    (contains text "levioso_lat_seconds_sum{job=\"t\"} 0.025"
    && contains text "levioso_lat_seconds_count{job=\"t\"} 6");
  (* JSON snapshot carries the compact echo *)
  let j = Monitor.snapshot_json m in
  (match Option.bind (Json.member "histograms" j) (Json.member "lat_seconds") with
  | Some h ->
    Alcotest.(check bool) "json echo has count" true
      (Json.member "count" h = Some (Json.Int 6))
  | None -> Alcotest.fail "histogram missing from the JSON snapshot");
  Monitor.close m

let test_monitor_process_metrics () =
  let m = Monitor.create ~label:"t" () in
  Monitor.set_gauge m "queue_depth" 1.;
  let text = Monitor.openmetrics m in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exposed") true (contains text name))
    [
      "levioso_uptime_seconds"; "levioso_gc_heap_words";
      "levioso_gc_top_heap_words"; "levioso_gc_minor_collections";
      "levioso_gc_major_collections"; "levioso_gc_minor_words";
    ];
  let j = Monitor.snapshot_json m in
  (match Json.member "process" j with
  | Some (Json.Obj fields) ->
    List.iter
      (fun name ->
        match List.assoc_opt name fields with
        | Some (Json.Float v) ->
          Alcotest.(check bool) (name ^ " non-negative") true (v >= 0.)
        | _ -> Alcotest.fail (name ^ " missing from the process object"))
      [ "uptime_seconds"; "gc_heap_words"; "gc_minor_collections" ];
    (* the major heap of a live process is never empty *)
    (match List.assoc_opt "gc_heap_words" fields with
    | Some (Json.Float v) ->
      Alcotest.(check bool) "heap words positive" true (v > 0.)
    | _ -> ())
  | _ -> Alcotest.fail "snapshot has no process object");
  Monitor.close m

(* --- schema sweep over every artifact family -------------------------- *)

(* One producer per schema-tagged artifact the toolchain writes.  Each
   must pass Schema.check as produced, and be rejected — with an error
   that names the artifact — when the version is wrong or missing, so a
   consumer of any family gets the same friendly failure instead of a
   field-shape crash deeper in. *)
let test_schema_check_sweep () =
  let module Tsdb = Levioso_telemetry.Tsdb in
  let module Flight = Levioso_telemetry.Flight in
  let module Span = Levioso_telemetry.Span in
  let module Protocol = Levioso_serve.Protocol in
  let monitor = Monitor.create ~label:"t" () in
  let artifacts =
    [
      ("run summary", Summary.runs []);
      ( "bench matrix",
        Schema.tag
          [
            ("schema", Json.String "levioso-bench-matrix/v1");
            ("matrix", Json.List []);
          ] );
      ("progress snapshot", Monitor.snapshot_json monitor);
      ("chrome trace", Span.to_chrome []);
      ( "access record",
        Span.access_record ~ts:1. ~trace:"tr" ~request:"submit" ~index:0
          ~workload:"stream" ~policy:"unsafe" ~source:"sim"
          ~stages:[ ("queue", 0.001) ]
          ~total_s:0.002 () );
      ("tsdb sample", Tsdb.sample_to_json { Tsdb.ts = 1.; fields = [ ("a", 1.) ] });
      ( "tsdb alert",
        Tsdb.alert_to_json { Tsdb.a_ts = 1.; rule = "a > 0"; firing = true } );
      ("post-mortem", Flight.dump (Flight.create ()) ~reason:"test" ~ts:1.);
      ("history", Protocol.history_doc []);
    ]
  in
  Monitor.close monitor;
  let with_version j v =
    match j with
    | Json.Obj fields ->
      Json.Obj (("schema_version", Json.Int v) :: List.remove_assoc "schema_version" fields)
    | j -> j
  in
  let without_version j =
    match j with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "schema_version" fields)
    | j -> j
  in
  List.iter
    (fun (what, doc) ->
      Alcotest.(check bool) (what ^ ": as produced passes") true
        (Schema.check ~what doc = Ok ());
      (match Schema.check ~what (with_version doc (Schema.version + 1)) with
      | Ok () -> Alcotest.failf "%s: future version accepted" what
      | Error msg ->
        Alcotest.(check bool) (what ^ ": version error names it") true
          (contains msg what && contains msg "expected"));
      match Schema.check ~what (without_version doc) with
      | Ok () -> Alcotest.failf "%s: untagged accepted" what
      | Error msg ->
        Alcotest.(check bool) (what ^ ": missing-tag error names it") true
          (contains msg what && contains msg "missing schema_version"))
    artifacts

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
      Alcotest.test_case "json accessors" `Quick test_json_accessors;
      Alcotest.test_case "stall table" `Quick test_stall_table;
      Alcotest.test_case "attribution = policy stalls" `Quick
        test_attribution_matches_policy_stalls;
      Alcotest.test_case "unsafe has no gate charges" `Quick
        test_attribution_unsafe_has_no_policy_gate;
      Alcotest.test_case "per-pc consistency" `Quick
        test_attribution_per_pc_consistency;
      Alcotest.test_case "trace sampling" `Quick test_trace_sampling;
      Alcotest.test_case "trace chrome format" `Quick test_trace_chrome_format;
      Alcotest.test_case "trace chrome bytes pinned" `Quick
        test_trace_chrome_bytes;
      Alcotest.test_case "trace jsonl format" `Quick test_trace_jsonl_format;
      Alcotest.test_case "trace format by extension" `Quick
        test_format_of_filename;
      Alcotest.test_case "summary golden keys" `Quick test_summary_golden_keys;
      Alcotest.test_case "wrong-path record is O(1)" `Quick
        test_wrong_path_counter_tracks_length;
      Alcotest.test_case "schema tag and check" `Quick
        test_schema_tag_and_check;
      Alcotest.test_case "json non-finite policy" `Quick
        test_json_nonfinite_policy;
      Alcotest.test_case "json roundtrip property" `Quick
        test_json_roundtrip_property;
      Alcotest.test_case "monitor gauge sanitization" `Quick
        test_monitor_gauge_sanitization;
      Alcotest.test_case "monitor HELP escaping" `Quick
        test_monitor_help_escaping;
      Alcotest.test_case "monitor metric ordering stable" `Quick
        test_monitor_metric_ordering_stable;
      Alcotest.test_case "monitor histogram exposition" `Quick
        test_monitor_histogram_exposition;
      Alcotest.test_case "monitor process self-metrics" `Quick
        test_monitor_process_metrics;
      Alcotest.test_case "schema sweep over every artifact" `Quick
        test_schema_check_sweep;
    ] )
