(* Leakage provenance: the taint-flow tracer.  Golden leak traces for
   the stock Spectre-v1 gadget (byte-for-byte, unsafe leaks / levioso
   doesn't), chain-content assertions against the gadget's known layout,
   the zero-effect guarantee (bit-identical architectural results and
   stats with the tracer on or off, over fuzzed programs and every
   registered policy), JSON well-formedness, the CLI range parser, and
   the monitor's isatty auto-suppression. *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Flowtrace = Levioso_telemetry.Flowtrace
module Monitor = Levioso_telemetry.Monitor
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Summary = Levioso_uarch.Summary
module Sim_stats = Levioso_uarch.Sim_stats
module Registry = Levioso_core.Registry
module Gadget = Levioso_attack.Gadget
module Gen = Levioso_fuzz.Gen

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* --- the canonical victim --------------------------------------------- *)

let run_spectre policy =
  let g = Gadget.bounds_check_bypass ~secret:42 () in
  let graph = Flowtrace.create () in
  let pipe =
    Pipeline.create ~mem_init:g.Gadget.mem_init Config.default
      ~policy:(Registry.find_exn policy) g.Gadget.program
  in
  Pipeline.set_flow_tracer pipe
    ~secret_ranges:[ (Gadget.oob_secret_addr, Gadget.oob_secret_addr) ]
    (fun ~cycle ev -> Flowtrace.feed graph ~cycle ev);
  Pipeline.run pipe;
  graph

let test_spectre_unsafe_chain () =
  let graph = run_spectre "unsafe" in
  Alcotest.(check bool) "unsafe leaks" false (Flowtrace.is_empty graph);
  let chains = Flowtrace.chains graph in
  Alcotest.(check bool) "at least one chain" true (chains <> []);
  let text = Flowtrace.render graph in
  (* the chain names the planted secret's address and the probe line the
     secret value 42 selects (probe_base + 42 * line size) *)
  Alcotest.(check bool) "source at the planted secret" true
    (contains
       (Printf.sprintf "SOURCE secret@%d" Gadget.oob_secret_addr)
       text);
  Alcotest.(check bool) "transmit at the secret's probe line" true
    (contains
       (Printf.sprintf "TRANSMIT probe@%d" (Gadget.probe_line_addr 42))
       text);
  Alcotest.(check bool) "chain names the mispredicted branch" true
    (contains "MISPREDICT" text);
  Alcotest.(check bool) "wrong-path work was squashed" true
    (contains "squashed" text);
  (* connectivity: within a chain every node except the roots has an
     incoming edge from another chain member, and there is at least one
     edge of every dependence kind on the canonical gadget *)
  Alcotest.(check bool) "data edge present" true (contains " <- " text);
  Alcotest.(check bool) "speculation edge present" true
    (contains "speculation:n" text);
  Alcotest.(check bool) "address edge present" true (contains "address:n" text)

let test_spectre_levioso_empty () =
  let graph = run_spectre "levioso" in
  Alcotest.(check bool) "levioso does not leak" true
    (Flowtrace.is_empty graph);
  Alcotest.(check (list (list int))) "no chains" [] (Flowtrace.chains graph);
  let text = Flowtrace.render graph in
  Alcotest.(check bool) "renders the empty statement" true
    (contains "no leak chains" text);
  Alcotest.(check bool) "zero transmits in the stats line" true
    (contains "transmits=0" text)

(* --- golden leak traces ----------------------------------------------- *)

let check_golden policy file =
  let text = Flowtrace.render (run_spectre policy) in
  Alcotest.(check bool) "versioned header" true
    (contains
       (Printf.sprintf "levioso-flowtrace v1 schema_version=%d" Schema.version)
       text);
  let golden = read_file file in
  if not (String.equal text golden) then
    Alcotest.failf
      "rendered leak trace differs from %s (%d vs %d bytes); regenerate by \
       re-running with LEVIOSO_BLESS=1"
      file (String.length text) (String.length golden)

let bless_or_check policy file =
  if Sys.getenv_opt "LEVIOSO_BLESS" = Some "1" then begin
    let oc = open_out_bin file in
    output_string oc (Flowtrace.render (run_spectre policy));
    close_out oc
  end
  else check_golden policy file

let test_golden_unsafe () =
  bless_or_check "unsafe" "golden_leaktrace_unsafe.txt"

let test_golden_levioso () =
  bless_or_check "levioso" "golden_leaktrace_levioso.txt"

let test_render_deterministic () =
  (* two independent runs render byte-identically *)
  Alcotest.(check string) "independent runs agree"
    (Flowtrace.render (run_spectre "unsafe"))
    (Flowtrace.render (run_spectre "unsafe"))

(* --- zero-effect guarantee -------------------------------------------- *)

let run_fuzzed ?graph ~seed ~policy () =
  let program = Gen.random_program seed in
  let pipe =
    Pipeline.create
      ~mem_init:(Gen.mem_init seed)
      Gen.default_config
      ~policy:(Registry.find_exn policy)
      program
  in
  (match graph with
  | Some g ->
    Pipeline.set_flow_tracer pipe ~secret_ranges:[ (0, 200); (1000, 1100) ]
      (fun ~cycle ev -> Flowtrace.feed g ~cycle ev)
  | None -> ());
  Pipeline.run pipe;
  pipe

let test_tracer_is_side_channel () =
  List.iter
    (fun seed ->
      List.iter
        (fun policy ->
          let plain = run_fuzzed ~seed ~policy () in
          let g = Flowtrace.create () in
          let traced = run_fuzzed ~graph:g ~seed ~policy () in
          let ctx = Printf.sprintf "seed %d, %s" seed policy in
          Alcotest.(check string)
            (ctx ^ ": identical stats")
            (Json.to_string (Sim_stats.to_json (Pipeline.stats plain)))
            (Json.to_string (Sim_stats.to_json (Pipeline.stats traced)));
          Alcotest.(check string)
            (ctx ^ ": identical summaries")
            (Json.to_string
               (Summary.of_pipeline ~workload:"fuzzed" ~policy plain))
            (Json.to_string
               (Summary.of_pipeline ~workload:"fuzzed" ~policy traced));
          Alcotest.(check (array int))
            (ctx ^ ": identical registers")
            (Pipeline.regs plain) (Pipeline.regs traced);
          Alcotest.(check bool)
            (ctx ^ ": identical memory")
            true
            (Pipeline.mem plain = Pipeline.mem traced))
        Registry.names)
    [ 2; 9; 17 ]

let test_tracer_rejects_bad_ranges () =
  let g = Gadget.bounds_check_bypass ~secret:1 () in
  let pipe =
    Pipeline.create ~mem_init:g.Gadget.mem_init Config.default
      ~policy:(Registry.find_exn "unsafe") g.Gadget.program
  in
  List.iter
    (fun ranges ->
      match
        Pipeline.set_flow_tracer pipe ~secret_ranges:ranges
          (fun ~cycle:_ _ -> ())
      with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "inverted/negative range should be rejected")
    [ [ (5, 2) ]; [ (-1, 3) ] ]

(* --- JSON shapes ------------------------------------------------------- *)

let test_graph_json () =
  let graph = run_spectre "unsafe" in
  let j = Flowtrace.to_json graph in
  Alcotest.(check bool) "schema-tagged" true (Schema.check j = Ok ());
  let mem k =
    match Json.member k j with
    | Some (Json.List l) -> List.length l
    | _ -> -1
  in
  Alcotest.(check bool) "has nodes" true (mem "nodes" > 0);
  Alcotest.(check bool) "has edges" true (mem "edges" > 0);
  Alcotest.(check bool) "has chains" true (mem "chains" > 0);
  (* the serialized text roundtrips through the parser *)
  match Json.of_string (Json.to_string j) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "graph JSON does not reparse: %s" msg

let test_event_json () =
  let evs =
    [
      Flowtrace.Node
        { id = 0; seq = 3; pc = 7; kind = Flowtrace.Load; disasm = "load" };
      Flowtrace.Source { id = 0; addr = 42 };
      Flowtrace.Edge { src = 0; dst = 1; dep = Flowtrace.Address };
      Flowtrace.Transmit { id = 1; addr = 99 };
      Flowtrace.Resolved { id = 2; mispredicted = true };
      Flowtrace.Committed { id = 2 };
      Flowtrace.Squashed { id = 1 };
    ]
  in
  List.iter
    (fun ev ->
      let j = Flowtrace.event_to_json ~cycle:5 ev in
      (match Json.member "event" j with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.fail "event records name their event kind");
      (match Json.member "cycle" j with
      | Some (Json.Int 5) -> ()
      | _ -> Alcotest.fail "event records carry the cycle");
      match Json.of_string (Json.to_string ~minify:true j) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "event JSON does not reparse: %s" msg)
    evs

(* --- CLI range parsing ------------------------------------------------- *)

let test_parse_range () =
  Alcotest.(check bool) "well-formed" true
    (Flowtrace.parse_range ~what:"--secret-range" "100:200" = Ok (100, 200));
  Alcotest.(check bool) "single point" true
    (Flowtrace.parse_range ~what:"--secret-range" "7:7" = Ok (7, 7));
  List.iter
    (fun s ->
      match Flowtrace.parse_range ~what:"--secret-range" s with
      | Ok _ -> Alcotest.failf "%S should be rejected" s
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error for %S names the flag" s)
          true
          (contains "--secret-range" msg);
        Alcotest.(check bool)
          (Printf.sprintf "error for %S quotes the value" s)
          true
          (contains (Printf.sprintf "%S" s) msg);
        Alcotest.(check bool)
          (Printf.sprintf "error for %S shows the expected form" s)
          true
          (contains "A:B" msg))
    [ "oops"; "1:2:3"; "9:4"; "-3:5"; "a:b"; ":" ]

(* --- monitor isatty auto-suppression ---------------------------------- *)

let monitor_output ~force =
  let path = Filename.temp_file "levioso_ansi" ".txt" in
  let oc = open_out path in
  let m =
    Monitor.create ~ansi:oc ~force_ansi:force ~min_interval:0.0 ~total:2
      ~label:"unit" ()
  in
  Monitor.start m "w/p";
  Monitor.item_done m;
  Monitor.close m;
  close_out oc;
  let body = read_file path in
  Sys.remove path;
  body

let test_monitor_ansi_suppression () =
  (* a plain file is not a TTY: the status line must stay away *)
  Alcotest.(check string) "piped output stays clean" "" (monitor_output ~force:false);
  (* --progress overrides the detection *)
  let forced = monitor_output ~force:true in
  Alcotest.(check bool) "forced output renders the line" true
    (String.length forced > 0);
  Alcotest.(check bool) "forced output mentions progress" true
    (contains "1/2" forced)

let suite =
  ( "flowtrace",
    [
      Alcotest.test_case "spectre-v1 unsafe chain" `Quick
        test_spectre_unsafe_chain;
      Alcotest.test_case "spectre-v1 levioso empty" `Quick
        test_spectre_levioso_empty;
      Alcotest.test_case "golden leak trace (unsafe)" `Quick
        test_golden_unsafe;
      Alcotest.test_case "golden leak trace (levioso)" `Quick
        test_golden_levioso;
      Alcotest.test_case "render deterministic" `Quick
        test_render_deterministic;
      Alcotest.test_case "tracer is a side channel" `Slow
        test_tracer_is_side_channel;
      Alcotest.test_case "tracer rejects bad ranges" `Quick
        test_tracer_rejects_bad_ranges;
      Alcotest.test_case "graph JSON" `Quick test_graph_json;
      Alcotest.test_case "event JSON" `Quick test_event_json;
      Alcotest.test_case "parse range" `Quick test_parse_range;
      Alcotest.test_case "monitor ANSI suppression" `Quick
        test_monitor_ansi_suppression;
    ] )
