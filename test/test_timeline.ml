(* The observability layer: ring buffer, Konata timeline rendering
   (golden-tested byte-for-byte), interval well-formedness over fuzzed
   programs and every registered policy, the no-perturbation guarantee
   (identical stats with tracers on or off, monitor on or off, -j 1 or
   -j 2), the live monitor's files, and host self-profiling spans. *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Timeline = Levioso_telemetry.Timeline
module Ring = Levioso_telemetry.Ring
module Monitor = Levioso_telemetry.Monitor
module Hostprof = Levioso_telemetry.Hostprof
module Parser = Levioso_ir.Parser
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Konata = Levioso_uarch.Konata
module Summary = Levioso_uarch.Summary
module Sim_stats = Levioso_uarch.Sim_stats
module Registry = Levioso_core.Registry
module Gen = Levioso_fuzz.Gen
module Parallel = Levioso_util.Parallel

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* --- ring buffer (Levioso_telemetry.Ring) ----------------------------- *)

let test_ring () =
  let r = Ring.create 3 in
  Alcotest.(check int) "capacity" 3 (Ring.capacity r);
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check int) "partial length" 2 (Ring.length r);
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  Ring.push r 5;
  Alcotest.(check int) "full length" 3 (Ring.length r);
  Alcotest.(check int) "pushes counted through overwrites" 5 (Ring.pushed r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 3; 4; 5 ]
    (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "clear resets length" 0 (Ring.length r);
  match Ring.create 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 should be rejected"

(* --- golden Konata traces --------------------------------------------- *)

let small_config = { Config.default with Config.mem_words = 65536 }

(* a loop with a data-dependent accumulator: the exit branch mispredicts,
   so the trace exercises fetch/issue/complete/commit, stall episodes and
   squash (flush) records under both policies *)
let golden_src =
  {|
    mov r1, #0
    mov r2, #0
  head:
    bge r1, #3, out
    load r3, [r1 + #1000]
    add r2, r2, r3
    add r1, r1, #1
    jump head
  out:
    store [r0 + #100], r2
    halt
  |}

let golden_mem_init mem =
  for i = 0 to 2 do
    mem.(1000 + i) <- 10 + i
  done

let golden_trace policy =
  let program = Parser.parse_exn golden_src in
  let tl = Konata.timeline program in
  let pipe =
    Pipeline.create ~mem_init:golden_mem_init small_config
      ~policy:(Registry.find_exn policy) program
  in
  Konata.attach tl pipe;
  Pipeline.run pipe;
  Timeline.to_konata_string
    ~meta:[ ("workload", "golden-loop"); ("policy", policy) ]
    tl

let check_golden policy file =
  let trace = golden_trace policy in
  Alcotest.(check bool) "Kanata 0004 header" true
    (String.length trace > 12 && String.sub trace 0 12 = "Kanata\t0004\n");
  Alcotest.(check bool) "schema-versioned comment" true
    (contains
       (Printf.sprintf "#levioso-timeline\tv%d" Timeline.format_version)
       trace);
  let golden = read_file file in
  if not (String.equal trace golden) then
    Alcotest.failf
      "rendered trace differs from %s (%d vs %d bytes); regenerate by \
       deleting the golden and re-running with LEVIOSO_BLESS=1"
      file (String.length trace) (String.length golden)

let bless_or_check policy file =
  if Sys.getenv_opt "LEVIOSO_BLESS" = Some "1" then begin
    let oc = open_out_bin file in
    output_string oc (golden_trace policy);
    close_out oc
  end
  else check_golden policy file

let test_golden_unsafe () = bless_or_check "unsafe" "golden_timeline_unsafe.kanata"
let test_golden_levioso () = bless_or_check "levioso" "golden_timeline_levioso.kanata"

let test_trace_mentions_squash_and_stalls () =
  let trace = golden_trace "levioso" in
  let lines = String.split_on_char '\n' trace in
  let retire suffix line =
    String.length line > 2
    && String.sub line 0 2 = "R\t"
    && String.length line > String.length suffix
    && String.sub line
         (String.length line - String.length suffix)
         (String.length suffix)
       = suffix
  in
  Alcotest.(check bool) "has commit retire records" true
    (List.exists (retire "\t0") lines);
  (* the loop-exit mispredict squashes wrong-path work: flush records *)
  Alcotest.(check bool) "has flush records" true
    (List.exists (retire "\t1") lines);
  (* levioso gates speculative loads: a policy-gate stall episode *)
  Alcotest.(check bool) "labels policy-gate stalls" true
    (contains "policy_gate" trace)

(* --- windowing -------------------------------------------------------- *)

let test_window_filters () =
  let program = Parser.parse_exn golden_src in
  let all = Konata.timeline program in
  let windowed = Konata.timeline ~window:(0, 2) program in
  let run tl =
    let pipe =
      Pipeline.create ~mem_init:golden_mem_init small_config
        ~policy:(Registry.find_exn "unsafe") program
    in
    Konata.attach tl pipe;
    Pipeline.run pipe
  in
  run all;
  run windowed;
  Alcotest.(check int) "window sees every fetch" (Timeline.seen all)
    (Timeline.seen windowed);
  Alcotest.(check bool) "window records fewer instructions" true
    (Timeline.recorded windowed < Timeline.recorded all);
  Alcotest.(check bool) "window records something" true
    (Timeline.recorded windowed > 0);
  List.iter
    (fun iv ->
      Alcotest.(check bool) "fetched inside window" true
        (iv.Timeline.iv_fetch >= 0 && iv.Timeline.iv_fetch <= 2))
    (Timeline.intervals windowed);
  match Timeline.create ~window:(5, 2) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted window should be rejected"

(* --- interval well-formedness over fuzzed programs -------------------- *)

let check_intervals ~seed ~policy =
  let program = Gen.random_program seed in
  let tl = Konata.timeline program in
  let pipe =
    Pipeline.create
      ~mem_init:(Gen.mem_init seed)
      Gen.default_config
      ~policy:(Registry.find_exn policy)
      program
  in
  Konata.attach tl pipe;
  Pipeline.run pipe;
  List.iter
    (fun iv ->
      let seq = iv.Timeline.iv_seq in
      let ordered what a b =
        if a > b then
          QCheck.Test.fail_reportf
            "seed %d, policy %s, seq %d: %s out of order (%d > %d)" seed
            policy seq what a b
      in
      (match iv.Timeline.iv_issue with
      | Some i -> ordered "fetch/issue" (iv.Timeline.iv_fetch + 1) i
      | None -> ());
      (match (iv.Timeline.iv_issue, iv.Timeline.iv_complete) with
      | Some i, Some c -> ordered "issue/complete" i c
      | None, Some _ ->
        QCheck.Test.fail_reportf
          "seed %d, policy %s, seq %d: completed without issuing" seed policy
          seq
      | _ -> ());
      (match (iv.Timeline.iv_complete, iv.Timeline.iv_commit) with
      | Some c, Some k -> ordered "complete/commit" c k
      | _ -> ());
      (match (iv.Timeline.iv_squash, iv.Timeline.iv_commit) with
      | Some _, Some _ ->
        QCheck.Test.fail_reportf
          "seed %d, policy %s, seq %d: squashed instruction committed" seed
          policy seq
      | _ -> ());
      match iv.Timeline.iv_squash with
      | Some s -> ordered "fetch/squash" (iv.Timeline.iv_fetch + 1) s
      | None -> ())
    (Timeline.intervals tl);
  true

let intervals_prop =
  QCheck.Test.make ~count:8 ~name:"stage intervals well-formed"
    QCheck.small_nat (fun n ->
      let seed = 1 + (n mod 1000) in
      List.for_all
        (fun policy -> check_intervals ~seed ~policy)
        Registry.names)

(* --- observability never perturbs results ----------------------------- *)

let run_golden ?observe () =
  let program = Parser.parse_exn golden_src in
  let pipe =
    Pipeline.create ~mem_init:golden_mem_init small_config
      ~policy:(Registry.find_exn "levioso") program
  in
  (match observe with
  | Some tl -> Konata.attach tl pipe
  | None -> ());
  Pipeline.run pipe;
  pipe

let test_timeline_is_side_channel () =
  let plain = run_golden () in
  let tl = Konata.timeline (Parser.parse_exn golden_src) in
  let observed = run_golden ~observe:tl () in
  Alcotest.(check string) "identical stats"
    (Json.to_string (Sim_stats.to_json (Pipeline.stats plain)))
    (Json.to_string (Sim_stats.to_json (Pipeline.stats observed)));
  Alcotest.(check string) "identical summaries"
    (Json.to_string
       (Summary.of_pipeline ~workload:"golden-loop" ~policy:"levioso" plain))
    (Json.to_string
       (Summary.of_pipeline ~workload:"golden-loop" ~policy:"levioso" observed));
  Alcotest.(check (array int)) "identical registers" (Pipeline.regs plain)
    (Pipeline.regs observed);
  Alcotest.(check bool) "identical memory" true
    (Pipeline.mem plain = Pipeline.mem observed);
  Alcotest.(check bool) "timeline saw the run" true (Timeline.recorded tl > 0)

(* a monitor-instrumented parallel sweep is bit-identical to the serial
   one: the monitor only ever observes, and Parallel.map keeps input
   order *)
let test_monitored_parallel_matrix_deterministic () =
  let cells =
    List.concat_map
      (fun policy -> List.map (fun seed -> (seed, policy)) [ 3; 5 ])
      [ "unsafe"; "levioso" ]
  in
  let sweep ~jobs =
    let json_path = Filename.temp_file "levioso_mon" ".json" in
    let m =
      Monitor.create ~json_path ~min_interval:0.0
        ~total:(List.length cells) ~label:"test-sweep" ()
    in
    let summaries =
      Parallel.with_pool ~size:jobs (fun pool ->
          Parallel.map pool
            (fun (seed, policy) ->
              Monitor.start m (Printf.sprintf "%d/%s" seed policy);
              let program = Gen.random_program seed in
              let pipe =
                Pipeline.create
                  ~mem_init:(Gen.mem_init seed)
                  Gen.default_config
                  ~policy:(Registry.find_exn policy)
                  program
              in
              Pipeline.run pipe;
              Monitor.item_done m ();
              Json.to_string
                (Summary.of_pipeline ~workload:(string_of_int seed) ~policy
                   pipe))
            cells)
    in
    Monitor.close m;
    let snapshot = read_file json_path in
    Sys.remove json_path;
    (String.concat "\n" summaries, snapshot)
  in
  let serial, snap1 = sweep ~jobs:1 in
  let parallel, snap2 = sweep ~jobs:2 in
  Alcotest.(check string) "-j 2 summaries equal -j 1" serial parallel;
  List.iter
    (fun snap ->
      match Json.of_string snap with
      | Error msg -> Alcotest.failf "snapshot unparsable: %s" msg
      | Ok j ->
        Alcotest.(check bool) "snapshot schema-tagged" true
          (Schema.check j = Ok ()))
    [ snap1; snap2 ]

(* --- monitor ---------------------------------------------------------- *)

let test_monitor_files () =
  let json_path = Filename.temp_file "levioso_mon" ".json" in
  let metrics_path = Filename.temp_file "levioso_mon" ".prom" in
  let m =
    Monitor.create ~json_path ~metrics_path ~min_interval:0.0 ~total:4
      ~label:"unit" ()
  in
  Monitor.start m "w/p";
  Monitor.item_done m ~wall_s:0.25 ();
  Monitor.progress m ~failures:1 ~done_:3 ();
  Monitor.close m;
  Monitor.close m;
  (* idempotent *)
  (match Json.of_string (read_file json_path) with
  | Error msg -> Alcotest.failf "progress json: %s" msg
  | Ok j ->
    let member k =
      match j with
      | Json.Obj kvs -> List.assoc_opt k kvs
      | _ -> None
    in
    Alcotest.(check bool) "schema-tagged" true (Schema.check j = Ok ());
    Alcotest.(check (option string)) "label" (Some "unit")
      (match member "label" with
      | Some (Json.String s) -> Some s
      | _ -> None);
    (match member "done" with
    | Some (Json.Int 3) -> ()
    | _ -> Alcotest.fail "done should be 3");
    (match member "total" with
    | Some (Json.Int 4) -> ()
    | _ -> Alcotest.fail "total should be 4");
    match member "failures" with
    | Some (Json.Int 1) -> ()
    | _ -> Alcotest.fail "failures should be 1");
  let metrics = read_file metrics_path in
  Alcotest.(check bool) "openmetrics done gauge" true
    (contains "levioso_progress_done{job=\"unit\"} 3" metrics);
  Alcotest.(check bool) "openmetrics total gauge" true
    (contains "levioso_progress_total{job=\"unit\"} 4" metrics);
  let eof = "# EOF\n" in
  let n = String.length metrics and e = String.length eof in
  Alcotest.(check bool) "openmetrics terminated" true
    (n >= e && String.sub metrics (n - e) e = eof);
  Sys.remove json_path;
  Sys.remove metrics_path

(* --- host profiling --------------------------------------------------- *)

let test_hostprof_measure () =
  let v, span =
    Hostprof.measure (fun () ->
        let acc = ref [] in
        for i = 1 to 10_000 do
          acc := (i, string_of_int i) :: !acc
        done;
        List.length !acc)
  in
  Alcotest.(check int) "thunk result" 10_000 v;
  Alcotest.(check bool) "wall clock non-negative" true (span.Hostprof.wall_s >= 0.0);
  Alcotest.(check bool) "allocation observed" true
    (Hostprof.alloc_words span > 0.0);
  let doubled = Hostprof.add span span in
  Alcotest.(check (float 1e-6)) "add sums allocation"
    (2.0 *. Hostprof.alloc_words span)
    (Hostprof.alloc_words doubled);
  Alcotest.(check bool) "zero is neutral" true
    (Hostprof.add Hostprof.zero span = span);
  match Hostprof.phases_to_json [ ("run", span) ] with
  | Json.Obj kvs ->
    Alcotest.(check bool) "has phases" true (List.mem_assoc "phases" kvs);
    Alcotest.(check bool) "has total" true (List.mem_assoc "total" kvs)
  | _ -> Alcotest.fail "phases_to_json should be an object"

(* The count is the span's own allocation: young objects left over from
   before the span (promoted, or not, at some later collection) must not
   leak into it, so the same thunk measures the same however much garbage
   precedes it. *)
let test_hostprof_counts_only_the_span () =
  let work () = Sys.opaque_identity (List.init 10_000 Fun.id) in
  let words ~litter =
    (* a fresh major cycle, so none ends inside the short span *)
    Gc.full_major ();
    let keep = ref [] in
    for i = 1 to litter do
      keep := (i, i) :: !keep
    done;
    let _, span = Hostprof.measure work in
    ignore (Sys.opaque_identity !keep);
    span.Hostprof.minor_words +. span.Hostprof.major_words
    -. span.Hostprof.promoted_words
  in
  let clean = words ~litter:0 in
  Alcotest.(check (float 0.))
    "independent of earlier young garbage" clean (words ~litter:50_000);
  Alcotest.(check bool) "counts the list" true (clean >= 30_000. && clean < 31_000.)

let suite =
  ( "timeline",
    [
      Alcotest.test_case "ring buffer" `Quick test_ring;
      Alcotest.test_case "golden konata (unsafe)" `Quick test_golden_unsafe;
      Alcotest.test_case "golden konata (levioso)" `Quick test_golden_levioso;
      Alcotest.test_case "trace shows squash and stalls" `Quick
        test_trace_mentions_squash_and_stalls;
      Alcotest.test_case "window filters" `Quick test_window_filters;
      QCheck_alcotest.to_alcotest intervals_prop;
      Alcotest.test_case "timeline is a side channel" `Quick
        test_timeline_is_side_channel;
      Alcotest.test_case "monitored parallel sweep deterministic" `Slow
        test_monitored_parallel_matrix_deterministic;
      Alcotest.test_case "monitor files" `Quick test_monitor_files;
      Alcotest.test_case "hostprof measure" `Quick test_hostprof_measure;
      Alcotest.test_case "hostprof counts only the span" `Quick
        test_hostprof_counts_only_the_span;
    ] )
