(* The observability layer: ring buffer, Konata timeline rendering
   (golden-tested byte-for-byte) and its taint marks, interval
   well-formedness over fuzzed programs and every registered policy,
   the no-perturbation guarantee (identical stats with tracers on or
   off, monitor on or off, -j 1 or -j 2), the live monitor's files, and
   host self-profiling spans. *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
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
module Gadget = Levioso_attack.Gadget
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
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  Ring.push r 5;
  Alcotest.(check int) "pushes counted through overwrites" 5 (Ring.pushed r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 3; 4; 5 ]
    (Ring.to_list r);
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
  let tl = Konata.create program in
  let pipe =
    Pipeline.create ~mem_init:golden_mem_init small_config
      ~policy:(Registry.find_exn policy) program
  in
  Konata.attach tl pipe;
  Pipeline.run pipe;
  Konata.to_string
    ~meta:[ ("workload", "golden-loop"); ("policy", policy) ]
    tl

let check_golden policy file =
  let trace = golden_trace policy in
  Alcotest.(check bool) "Kanata 0004 header" true
    (String.length trace > 12 && String.sub trace 0 12 = "Kanata\t0004\n");
  Alcotest.(check bool) "schema-versioned comment" true
    (contains
       (Printf.sprintf "#levioso-timeline\tv%d" Konata.format_version)
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
  let all = Konata.create program in
  let windowed = Konata.create ~window:(0, 2) program in
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
  Alcotest.(check int) "window sees every fetch" (Konata.seen all)
    (Konata.seen windowed);
  Alcotest.(check bool) "window records fewer instructions" true
    (Konata.recorded windowed < Konata.recorded all);
  Alcotest.(check bool) "window records something" true
    (Konata.recorded windowed > 0);
  List.iter
    (fun iv ->
      Alcotest.(check bool) "fetched inside window" true
        (iv.Konata.iv_fetch >= 0 && iv.Konata.iv_fetch <= 2))
    (Konata.intervals windowed);
  match Konata.create ~window:(5, 2) program with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted window should be rejected"

(* --- taint marks from the flow tracer --------------------------------- *)

(* The spectre-v1 gadget with the timeline attached and the flow tracer
   feeding it, as [levioso_sim --timeline --leak-trace] runs it. *)
let spectre_taint_trace policy =
  let g = Gadget.bounds_check_bypass ~secret:42 () in
  let tl = Konata.create g.Gadget.program in
  let pipe =
    Pipeline.create ~mem_init:g.Gadget.mem_init Config.default
      ~policy:(Registry.find_exn policy) g.Gadget.program
  in
  Konata.attach tl pipe;
  Pipeline.set_flow_tracer pipe
    ~secret_ranges:[ (Gadget.oob_secret_addr, Gadget.oob_secret_addr) ]
    (Konata.flow_feeder tl);
  Pipeline.run pipe;
  Konata.to_string tl

(* Lines of [trace] per taint mark: the lane-1 [S]/[E] pair of each
   segment, then the hover label naming it. *)
let taint_marks trace =
  let lines = String.split_on_char '\n' trace in
  let count pred = List.length (List.filter pred lines) in
  let stage code l = String.ends_with ~suffix:("\t1\t" ^ code) l in
  let label cause l =
    String.starts_with ~prefix:"L\t" l && contains ("\t1\t" ^ cause ^ " [") l
  in
  [
    ("Ts", count (stage "Ts"));
    ("Tn", count (stage "Tn"));
    ("taint source", count (label "taint source"));
    ("tainted transmit", count (label "tainted transmit"));
  ]

let test_taint_marks () =
  let marks = Alcotest.(list (pair string int)) in
  Alcotest.(check marks) "unsafe: one Ts and one Tn segment, labelled"
    [ ("Ts", 2); ("Tn", 2); ("taint source", 1); ("tainted transmit", 1) ]
    (taint_marks (spectre_taint_trace "unsafe"));
  Alcotest.(check marks) "levioso: no taint marks"
    [ ("Ts", 0); ("Tn", 0); ("taint source", 0); ("tainted transmit", 0) ]
    (taint_marks (spectre_taint_trace "levioso"))

(* --- interval well-formedness over fuzzed programs -------------------- *)

let check_intervals ~seed ~policy =
  let program = Gen.random_program seed in
  let tl = Konata.create program in
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
      let seq = iv.Konata.iv_seq in
      let ordered what a b =
        if a > b then
          QCheck.Test.fail_reportf
            "seed %d, policy %s, seq %d: %s out of order (%d > %d)" seed
            policy seq what a b
      in
      (match iv.Konata.iv_issue with
      | Some i -> ordered "fetch/issue" (iv.Konata.iv_fetch + 1) i
      | None -> ());
      (match (iv.Konata.iv_issue, iv.Konata.iv_complete) with
      | Some i, Some c -> ordered "issue/complete" i c
      | None, Some _ ->
        QCheck.Test.fail_reportf
          "seed %d, policy %s, seq %d: completed without issuing" seed policy
          seq
      | _ -> ());
      (match (iv.Konata.iv_complete, iv.Konata.iv_commit) with
      | Some c, Some k -> ordered "complete/commit" c k
      | _ -> ());
      (match (iv.Konata.iv_squash, iv.Konata.iv_commit) with
      | Some _, Some _ ->
        QCheck.Test.fail_reportf
          "seed %d, policy %s, seq %d: squashed instruction committed" seed
          policy seq
      | _ -> ());
      match iv.Konata.iv_squash with
      | Some s -> ordered "fetch/squash" (iv.Konata.iv_fetch + 1) s
      | None -> ())
    (Konata.intervals tl);
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
  let tl = Konata.create (Parser.parse_exn golden_src) in
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
  Alcotest.(check bool) "timeline saw the run" true (Konata.recorded tl > 0)

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
    let metrics_path = Filename.temp_file "levioso_mon" ".prom" in
    let m =
      Monitor.create ~metrics_path ~min_interval:0.0
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
              Monitor.item_done m;
              Json.to_string
                (Summary.of_pipeline ~workload:(string_of_int seed) ~policy
                   pipe))
            cells)
    in
    Monitor.close m;
    let metrics = read_file metrics_path in
    Sys.remove metrics_path;
    (* the progress gauges; elapsed time and GC counters differ by run *)
    let progress =
      List.filter
        (fun l ->
          String.starts_with ~prefix:"levioso_progress_done" l
          || String.starts_with ~prefix:"levioso_progress_total" l)
        (String.split_on_char '\n' metrics)
    in
    (String.concat "\n" summaries, progress)
  in
  let serial, prog1 = sweep ~jobs:1 in
  let parallel, prog2 = sweep ~jobs:2 in
  Alcotest.(check string) "-j 2 summaries equal -j 1" serial parallel;
  Alcotest.(check (list string)) "every cell counted, done = total"
    [
      "levioso_progress_done{job=\"test-sweep\"} 4";
      "levioso_progress_total{job=\"test-sweep\"} 4";
    ]
    prog1;
  Alcotest.(check (list string)) "-j 2 metrics progress equals -j 1" prog1
    prog2

(* --- monitor ---------------------------------------------------------- *)

let test_monitor_files () =
  let metrics_path = Filename.temp_file "levioso_mon" ".prom" in
  let m =
    Monitor.create ~metrics_path ~min_interval:0.0 ~total:4 ~label:"unit" ()
  in
  Monitor.start m "w/p";
  Monitor.item_done m;
  Monitor.progress m ~failures:1 ~done_:3 ();
  Monitor.close m;
  Monitor.close m;
  (* idempotent *)
  let metrics = read_file metrics_path in
  (* each gauge once, labelled with the monitor's label *)
  List.iter
    (fun gauge ->
      Alcotest.(check int) gauge 1
        (List.length
           (List.filter (( = ) gauge) (String.split_on_char '\n' metrics))))
    [
      "levioso_progress_done{job=\"unit\"} 3";
      "levioso_progress_total{job=\"unit\"} 4";
      "levioso_progress_failures{job=\"unit\"} 1";
    ];
  let eof = "# EOF\n" in
  let n = String.length metrics and e = String.length eof in
  Alcotest.(check bool) "openmetrics terminated" true
    (n >= e && String.sub metrics (n - e) e = eof);
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
      Alcotest.test_case "taint marks under --leak-trace" `Quick
        test_taint_marks;
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
