(* Reporting pipeline: differential overhead attribution on real runs,
   byte-deterministic HTML rendering against a checked-in golden file,
   and the one run reader both decode through (Summary.read_runs). *)

module Json = Levioso_telemetry.Json
module Flowtrace = Levioso_telemetry.Flowtrace
module Schema = Levioso_telemetry.Schema
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Summary = Levioso_uarch.Summary
module Diff_report = Levioso_uarch.Diff_report
module Html_report = Levioso_uarch.Html_report
module Sampler = Levioso_uarch.Sampler
module Registry = Levioso_core.Registry
module Explain = Levioso_core.Explain
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

(* The leak graph of the stock Spectre-v1 gadget under unsafe, as
   [levioso_sim -w spectre-v1 -p unsafe --leak-trace FILE.json] writes it. *)
let spectre_leak () = Flowtrace.to_json (Test_flowtrace.run_spectre "unsafe")

let render_ok ?leak matrix =
  match Html_report.render ?leak matrix with
  | Ok html -> html
  | Error msg -> Alcotest.fail msg

let leak_ok doc =
  match Summary.leak_of_json doc with
  | Ok leak -> leak
  | Error msg -> Alcotest.fail msg

(* --- differential attribution on real simulator output ---------------- *)

let audited_summary ~workload ~policy =
  let w = Suite.find_exn workload in
  let audit = Explain.audit_for w.Workload.program in
  let pipe =
    Pipeline.create ~mem_init:w.Workload.mem_init ~audit Config.default
      ~policy:(Registry.find_exn policy) w.Workload.program
  in
  Pipeline.run pipe;
  Summary.of_pipeline ~workload ~policy pipe

let run_of summary =
  match Summary.run_of_json summary with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let test_diff_on_real_runs () =
  let baseline = run_of (audited_summary ~workload:"stream" ~policy:"unsafe") in
  let delay = run_of (audited_summary ~workload:"stream" ~policy:"delay") in
  let d = Diff_report.compute ~baseline delay in
  Alcotest.(check string) "workload" "stream" d.Diff_report.workload;
  Alcotest.(check string) "policy" "delay" d.Diff_report.policy;
  Alcotest.(check string) "baseline" "unsafe" d.Diff_report.baseline;
  Alcotest.(check int) "overhead is the cycle difference"
    (d.Diff_report.policy_cycles - d.Diff_report.baseline_cycles)
    d.Diff_report.overhead_cycles;
  Alcotest.(check bool) "delay costs cycles" true (d.Diff_report.overhead_cycles > 0);
  let gate_delta =
    try List.assoc "policy_gate" d.Diff_report.cause_delta
    with Not_found -> Alcotest.fail "no policy_gate cause in delta"
  in
  Alcotest.(check bool) "gate delta positive" true (gate_delta > 0);
  Alcotest.(check bool) "audited cycles present" true
    (d.Diff_report.audited_cycles > 0);
  Alcotest.(check bool) "audited cycles bounded by gate stalls" true
    (d.Diff_report.audited_cycles <= gate_delta);
  Alcotest.(check bool) "delay over-restricts stream" true
    (d.Diff_report.unnecessary_share > 0.0);
  Alcotest.(check bool) "share is a ratio" true
    (d.Diff_report.unnecessary_share <= 1.0);
  (match d.Diff_report.top_pcs with
  | [] -> Alcotest.fail "no top PCs in diff"
  | pcs ->
    let deltas = List.map (fun p -> p.Diff_report.delta) pcs in
    Alcotest.(check (list int)) "top PCs sorted by delta desc" deltas
      (List.sort (fun a b -> compare b a) deltas));
  Alcotest.(check bool) "diff json schema-tagged" true
    (Schema.check (Diff_report.to_json d) = Ok ());
  Alcotest.(check bool) "rows render" true (Diff_report.to_rows d <> [])

(* Every report reads runs through Summary.read_runs, so each malformed
   input must be refused by both readers alike, rather than crash one of
   them or read as zeros.  A [host] section is not read at all. *)
let test_diff_rejects_garbage () =
  Alcotest.(check bool)
    "a summary without labels or stats" true
    (Result.is_error (Summary.run_of_json (Json.Obj [ ("x", Json.Int 1) ])));
  let run ?(workload = Json.String "w") ?(cycles = Json.Int 100) extra =
    Json.Obj
      ([
         ("workload", workload);
         ("policy", Json.String "unsafe");
         ("stats", Json.Obj [ ("cycles", cycles) ]);
       ]
      @ extra)
  in
  let runs rs = Schema.tag [ ("runs", Json.List rs) ] in
  let host minor =
    Json.Obj
      [
        ("phases", Json.Obj []);
        ( "total",
          Json.Obj
            [
              ("minor_words", minor);
              ("promoted_words", Json.Float 0.0);
              ("major_words", Json.Float 0.0);
            ] );
      ]
  in
  let traj minor =
    Schema.tag
      [
        ( "matrix",
          Json.List
            [
              Json.Obj
                [
                  ("workload", Json.String "w");
                  ("policy", Json.String "unsafe");
                  ("cycles", Json.Int 100);
                  ("host", host minor);
                ];
            ] );
      ]
  in
  (* the unedited shapes decode, so each rejection below is its edit's *)
  List.iter
    (fun v ->
      match Summary.read_runs v with
      | Ok [ r ] ->
        Alcotest.(check int) "well-formed cycles" 100 r.Summary.cycles
      | Ok _ -> Alcotest.fail "expected one run"
      | Error msg -> Alcotest.fail msg)
    [
      runs [ run [] ];
      runs [ run [ ("host", host (Json.Float 1e6)) ] ];
      runs [ run [ ("host", host (Json.String "many")) ] ];
      traj (Json.Float 1e6);
    ];
  List.iter
    (fun (what, v) ->
      let reject reader result =
        Alcotest.(check bool)
          (what ^ " / " ^ reader)
          true (Result.is_error result)
      in
      reject "Summary.read_runs" (Summary.read_runs v);
      reject "Html_report.render" (Html_report.render v))
    [
      ( "stale schema_version",
        Json.Obj
          [
            ("schema_version", Json.Int (Schema.version - 1));
            ("runs", Json.List [ run [] ]);
          ] );
      ( "missing label",
        runs
          [
            Json.Obj
              [
                ("policy", Json.String "unsafe");
                ("stats", Json.Obj [ ("cycles", Json.Int 100) ]);
              ];
          ] );
      ("non-string label", runs [ run ~workload:(Json.Int 3) [] ]);
      ("string cycles", runs [ run ~cycles:(Json.String "100") [] ]);
      ("fractional cycles", runs [ run ~cycles:(Json.Float 1.5) [] ]);
      ( "sampled block without estimated_cycles",
        runs [ run [ ("sampled", Json.Obj [ ("intervals", Json.Int 4) ]) ] ] );
      ("neither runs nor trajectory", Schema.tag [ ("entries", Json.List []) ]);
      ("runs is not a list", Schema.tag [ ("runs", Json.Obj []) ]);
    ];
  (* A leak graph is read by the same rules: the unedited spectre-v1
     document decodes, and each edit is refused instead of reading as an
     empty graph, which the report would print as "no leak". *)
  let leak = spectre_leak () in
  Alcotest.(check bool) "the unedited leak graph has chains" true
    ((leak_ok leak).Summary.chains > 0);
  (* [field k f] rewrites field [k] of an object through [f]; [None]
     drops it *)
  let field k f = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k, v)) (f v)
             else Some (k', v))
           fields)
    | j -> j
  in
  let first f = function
    | Json.List (x :: rest) -> Json.List (f x :: rest)
    | _ -> Alcotest.fail "expected a non-empty list"
  in
  List.iter
    (fun (what, edit) ->
      Alcotest.(check bool)
        (what ^ " / Summary.leak_of_json")
        true
        (Result.is_error (Summary.leak_of_json (edit leak))))
    [
      ("non-list nodes", field "nodes" (fun _ -> Some (Json.Obj [])));
      ( "a node with a string pc",
        field "nodes" (fun ns ->
            Some (first (field "pc" (fun _ -> Some (Json.String "7"))) ns)) );
      ( "an edge without dst",
        field "edges" (fun es -> Some (first (field "dst" (fun _ -> None)) es)) );
      ("no chains", field "chains" (fun _ -> None));
      ("another kind", field "kind" (fun _ -> Some (Json.String "levioso-runs")));
    ]

(* --- HTML golden ------------------------------------------------------ *)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let golden_matrix () =
  match Json.of_string (read_file "golden_matrix.json") with
  | Ok j -> j
  | Error msg -> Alcotest.failf "golden_matrix.json: %s" msg

let test_html_golden () =
  List.iter
    (fun (golden_file, leak) ->
      let html = render_ok ?leak (golden_matrix ()) in
      let golden = read_file golden_file in
      if not (String.equal html golden) then
        Alcotest.failf
          "rendered HTML differs from %s (%d vs %d bytes); regenerate with: \
           dune exec bin/levioso_report.exe -- test/golden_matrix.json -o \
           test/%s%s"
          golden_file (String.length html) (String.length golden) golden_file
          (if leak = None then ""
           else
             " --leak-trace L.json, L.json from levioso_sim -w spectre-v1 \
              -p unsafe --leak-trace L.json"))
    [
      ("golden_report.html", None);
      ("golden_report_leak.html", Some (leak_ok (spectre_leak ())));
    ]

let test_html_deterministic_and_total () =
  let m = golden_matrix () in
  Alcotest.(check string)
    "two renders are byte-identical" (render_ok m)
    (render_ok m);
  (* a matrix straight out of the simulator renders too *)
  let runs =
    [
      audited_summary ~workload:"bsearch" ~policy:"unsafe";
      audited_summary ~workload:"bsearch" ~policy:"levioso";
    ]
  in
  let html =
    render_ok (Schema.tag [ ("runs", Json.List runs) ])
  in
  Alcotest.(check bool) "has doctype" true
    (String.length html > 15 && String.sub html 0 15 = "<!DOCTYPE html>");
  Alcotest.(check bool) "mentions the workload" true (contains "bsearch" html);
  match Html_report.render (Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rendering a runs-less object should fail"

(* --- the run reader on its two layouts --------------------------------- *)

let read_runs_ok doc =
  match Summary.read_runs doc with
  | Ok runs -> runs
  | Error msg -> Alcotest.fail msg

let test_read_runs_layouts () =
  (match read_runs_ok (golden_matrix ()) with
  | [] -> Alcotest.fail "no runs in golden_matrix.json"
  | r :: _ as rs ->
    Alcotest.(check int) "one run per summary" 6 (List.length rs);
    Alcotest.(check (triple string string int))
      "first run" ("alpha", "unsafe", 1000)
      (r.Summary.workload, r.Summary.policy, r.Summary.cycles));
  (* a BENCH_matrix.json trajectory: cycles sit on each cell, a sweep
     cell reuses the default cell's labels, and a remote cell carries
     the empty host bench writes for it *)
  let cell ?(policy = "levioso") ~default cycles extra =
    Json.Obj
      ([
         ("workload", Json.String "stream");
         ("policy", Json.String policy);
         ("config", Json.String (if default then "default" else "rob=32"));
         ("default_config", Json.Bool default);
         ("cycles", Json.Int cycles);
       ]
      @ extra)
  in
  let trajectory =
    Schema.tag
      [
        ("schema", Json.String "levioso-bench-matrix/v1");
        ( "matrix",
          Json.List
            [
              cell ~default:true 1234 [];
              cell ~default:false 999 [];
              cell ~policy:"unsafe" ~default:true 1000
                [
                  ("source", Json.String "remote-sim");
                  ("host", Json.Obj []);
                ];
            ] );
      ]
  in
  Alcotest.(check (list (pair string int)))
    "default-config cells only, remote cell kept"
    [ ("levioso", 1234); ("unsafe", 1000) ]
    (List.map
       (fun (r : Summary.run) -> (r.policy, r.cycles))
       (read_runs_ok trajectory));
  match Html_report.render trajectory with
  | Ok html ->
    Alcotest.(check bool) "trajectory renders its cycles" true
      (contains "stream / levioso: 1234 cycles" html)
  | Error msg -> Alcotest.fail msg

(* Every report charges a sampled run its estimate, not the detailed
   intervals' cycle sum. *)
let test_sampled_runs_report_estimate () =
  let w = Suite.find_exn "compact" in
  let spec =
    match Sampler.parse "1000:500:4" with
    | Ok (Some sp) -> sp
    | _ -> Alcotest.fail "bad sample spec"
  in
  let sampled policy =
    let r =
      Sampler.run ~mem_init:w.Workload.mem_init spec Config.default
        ~policy:(Registry.find_exn policy) w.Workload.program
    in
    Alcotest.(check bool)
      (policy ^ ": estimate differs from the detailed cycles") true
      (r.Sampler.estimated_cycles
      <> r.Sampler.stats.Levioso_uarch.Sim_stats.cycles);
    ( r.Sampler.estimated_cycles,
      Summary.of_sampled ~workload:"compact" ~policy r )
  in
  let base_est, base = sampled "unsafe" in
  let lev_est, lev = sampled "levioso" in
  let d = Diff_report.compute ~baseline:(run_of base) (run_of lev) in
  Alcotest.(check (pair int int)) "diff charges each run its estimate"
    (lev_est, base_est)
    (d.Diff_report.policy_cycles, d.Diff_report.baseline_cycles);
  Alcotest.(check int) "diff overhead is the estimates' difference"
    (lev_est - base_est) d.Diff_report.overhead_cycles;
  let matrix = Summary.runs [ base; lev ] in
  Alcotest.(check (list int)) "read_runs carries the estimates"
    [ base_est; lev_est ]
    (List.map (fun (r : Summary.run) -> r.cycles) (read_runs_ok matrix));
  let html = render_ok matrix in
  List.iter
    (fun (policy, est) ->
      Alcotest.(check bool)
        (policy ^ " chart title shows the estimate") true
        (contains (Printf.sprintf "compact / %s: %d cycles" policy est) html))
    [ ("unsafe", base_est); ("levioso", lev_est) ]

let suite =
  ( "report",
    [
      Alcotest.test_case "diff on real runs" `Quick test_diff_on_real_runs;
      Alcotest.test_case "diff rejects garbage" `Quick test_diff_rejects_garbage;
      Alcotest.test_case "html golden" `Quick test_html_golden;
      Alcotest.test_case "html deterministic and total" `Quick
        test_html_deterministic_and_total;
      Alcotest.test_case "read_runs on both layouts" `Quick
        test_read_runs_layouts;
      Alcotest.test_case "sampled runs report their estimate" `Quick
        test_sampled_runs_report_estimate;
    ] )
