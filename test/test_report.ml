(* Reporting pipeline: differential overhead attribution on real runs,
   byte-deterministic HTML rendering against a checked-in golden file,
   bench-history regression gating, and the one run reader all three
   decode through (Summary.read_runs). *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Summary = Levioso_uarch.Summary
module Diff_report = Levioso_uarch.Diff_report
module Html_report = Levioso_uarch.Html_report
module Bench_history = Levioso_uarch.Bench_history
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
   input must be refused by all three readers alike, rather than crash
   one of them or read as zeros. *)
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
      reject "Html_report.render" (Html_report.render v);
      reject "Bench_history.of_matrix" (Bench_history.of_matrix ~label:"x" v))
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
      ( "malformed host total in a run",
        runs [ run [ ("host", host (Json.String "many")) ] ] );
      ( "host section without totals",
        runs [ run [ ("host", Json.Obj [ ("phases", Json.Obj []) ]) ] ] );
      ("malformed host total in a trajectory", traj (Json.String "many"));
      ("neither runs nor trajectory", Schema.tag [ ("entries", Json.List []) ]);
      ("runs is not a list", Schema.tag [ ("runs", Json.Obj []) ]);
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
  let html = Html_report.render_exn (golden_matrix ()) in
  let golden = read_file "golden_report.html" in
  if not (String.equal html golden) then
    Alcotest.failf
      "rendered HTML differs from golden_report.html (%d vs %d bytes); \
       regenerate with: dune exec bin/levioso_report.exe -- \
       test/golden_matrix.json -o test/golden_report.html"
      (String.length html) (String.length golden)

let test_html_deterministic_and_total () =
  let m = golden_matrix () in
  Alcotest.(check string)
    "two renders are byte-identical" (Html_report.render_exn m)
    (Html_report.render_exn m);
  (* a matrix straight out of the simulator renders too *)
  let runs =
    [
      audited_summary ~workload:"bsearch" ~policy:"unsafe";
      audited_summary ~workload:"bsearch" ~policy:"levioso";
    ]
  in
  let html =
    Html_report.render_exn (Schema.tag [ ("runs", Json.List runs) ])
  in
  Alcotest.(check bool) "has doctype" true
    (String.length html > 15 && String.sub html 0 15 = "<!DOCTYPE html>");
  Alcotest.(check bool) "mentions the workload" true (contains "bsearch" html);
  match Html_report.render (Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rendering a runs-less object should fail"

(* --- bench history ---------------------------------------------------- *)

let cell ?alloc workload policy cycles =
  { Bench_history.workload; policy; cycles; alloc_mwords = alloc }

let entry label cells = { Bench_history.label; cells }

let test_history_roundtrip_and_append () =
  let path = Filename.temp_file "levioso_hist" ".json" in
  let e1 =
    entry "first" [ cell "stream" "unsafe" 1000; cell "stream" "levioso" 1100 ]
  in
  let e2 =
    entry "second" [ cell "stream" "unsafe" 1000; cell "stream" "levioso" 1105 ]
  in
  Bench_history.save path [ e1 ];
  (match Bench_history.load path with
  | Ok [ e ] ->
    Alcotest.(check string) "label" "first" e.Bench_history.label;
    Alcotest.(check int) "cells" 2 (List.length e.Bench_history.cells)
  | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
  | Error msg -> Alcotest.fail msg);
  (match Bench_history.append ~path e2 with
  | Ok n -> Alcotest.(check int) "append count" 2 n
  | Error msg -> Alcotest.fail msg);
  (match Bench_history.load path with
  | Ok entries ->
    Alcotest.(check (list string))
      "order preserved" [ "first"; "second" ]
      (List.map (fun e -> e.Bench_history.label) entries)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_history_of_matrix () =
  (match Bench_history.of_matrix ~label:"golden" (golden_matrix ()) with
  | Error msg -> Alcotest.fail msg
  | Ok e ->
    Alcotest.(check int) "one cell per run" 6 (List.length e.Bench_history.cells);
    let c = List.hd e.Bench_history.cells in
    Alcotest.(check string) "workload" "alpha" c.Bench_history.workload;
    Alcotest.(check string) "policy" "unsafe" c.Bench_history.policy;
    Alcotest.(check int) "cycles" 1000 c.Bench_history.cycles);
  (* a BENCH_matrix.json trajectory: cycles and host sit on each cell,
     a sweep cell reuses the default cell's labels, and a remote cell
     carries the empty host bench writes for it *)
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
  let host =
    Json.Obj
      [
        ("phases", Json.Obj []);
        ( "total",
          Json.Obj
            [
              ("wall_s", Json.Float 0.5);
              ("minor_words", Json.Float 3e6);
              ("promoted_words", Json.Float 5e5);
              ("major_words", Json.Float 1e6);
            ] );
      ]
  in
  let trajectory =
    Schema.tag
      [
        ("schema", Json.String "levioso-bench-matrix/v1");
        ( "matrix",
          Json.List
            [
              cell ~default:true 1234 [ ("host", host) ];
              cell ~default:false 999 [];
              cell ~policy:"unsafe" ~default:true 1000
                [
                  ("source", Json.String "remote-sim");
                  ("host", Json.Obj []);
                ];
            ] );
      ]
  in
  (match Bench_history.of_matrix ~label:"trajectory" trajectory with
  | Error msg -> Alcotest.fail msg
  | Ok { Bench_history.cells = [ c; remote ]; _ } ->
    Alcotest.(check int)
      "cycles from the kept cell" 1234 c.Bench_history.cycles;
    Alcotest.(check (option (float 1e-9)))
      "alloc from the kept cell's host totals" (Some 3.5)
      c.Bench_history.alloc_mwords;
    Alcotest.(check (pair string int))
      "remote cell kept" ("unsafe", 1000)
      (remote.Bench_history.policy, remote.Bench_history.cycles);
    Alcotest.(check (option (float 1e-9)))
      "an empty host is no alloc figure" None
      remote.Bench_history.alloc_mwords
  | Ok e ->
    Alcotest.failf "expected two default-config cells, got %d"
      (List.length e.Bench_history.cells));
  match Html_report.render trajectory with
  | Ok html ->
    Alcotest.(check bool) "trajectory renders its cycles" true
      (contains "stream / levioso: 1234 cycles" html)
  | Error msg -> Alcotest.fail msg

let test_compare_flags_regression () =
  let old_ =
    [ entry "base" [ cell "w" "levioso" 1000; cell "w" "delay" 4000 ] ]
  in
  (* levioso slows down 20%, delay improves: only levioso flagged *)
  let new_ =
    [
      entry "old-run" [ cell "w" "levioso" 900; cell "w" "delay" 4100 ];
      entry "current" [ cell "w" "levioso" 1200; cell "w" "delay" 3900 ];
    ]
  in
  (match Bench_history.compare_latest ~tolerance:15.0 ~old_ ~new_ () with
  | Ok [ r ] ->
    Alcotest.(check string) "flagged policy" "levioso" r.Bench_history.r_policy;
    Alcotest.(check string) "metric" "cycles" r.Bench_history.r_metric;
    Alcotest.(check (float 0.01)) "old cycles" 1000.0 r.Bench_history.r_old;
    Alcotest.(check (float 0.01)) "new cycles" 1200.0 r.Bench_history.r_new;
    Alcotest.(check (float 0.01)) "pct" 20.0 r.Bench_history.pct
  | Ok rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs)
  | Error msg -> Alcotest.fail msg);
  (* within tolerance: clean *)
  (match Bench_history.compare_latest ~tolerance:25.0 ~old_ ~new_ () with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "20% growth within 25% tolerance was flagged"
  | Error msg -> Alcotest.fail msg);
  (* disjoint matrices can't be compared *)
  (match
     Bench_history.compare_latest ~tolerance:15.0 ~old_
       ~new_:[ entry "other" [ cell "x" "fence" 5 ] ]
       ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no-overlap comparison should error");
  match Bench_history.compare_latest ~tolerance:15.0 ~old_:[] ~new_ () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty history comparison should error"

let test_compare_flags_alloc_regression () =
  (* cycles hold steady but the host section shows a 50% allocation
     growth: only the alloc metric is flagged *)
  let old_ = [ entry "base" [ cell ~alloc:10.0 "w" "levioso" 1000 ] ] in
  let new_ = [ entry "current" [ cell ~alloc:15.0 "w" "levioso" 1000 ] ] in
  (match Bench_history.compare_latest ~tolerance:5.0 ~old_ ~new_ () with
  | Ok [ r ] ->
    Alcotest.(check string) "metric" "alloc_mwords" r.Bench_history.r_metric;
    Alcotest.(check (float 0.01)) "old alloc" 10.0 r.Bench_history.r_old;
    Alcotest.(check (float 0.01)) "new alloc" 15.0 r.Bench_history.r_new;
    Alcotest.(check (float 0.01)) "pct" 50.0 r.Bench_history.pct
  | Ok rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs)
  | Error msg -> Alcotest.fail msg);
  (* a looser alloc-specific tolerance silences it without loosening the
     cycle gate *)
  (match
     Bench_history.compare_latest ~tolerance:5.0 ~alloc_tolerance:60.0 ~old_
       ~new_ ()
   with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "50% alloc growth within 60% tolerance was flagged"
  | Error msg -> Alcotest.fail msg);
  (* histories recorded before host profiling existed have no alloc
     numbers; comparison must not invent them *)
  let bare = [ entry "pre-host" [ cell "w" "levioso" 1000 ] ] in
  (match Bench_history.compare_latest ~tolerance:5.0 ~old_:bare ~new_ () with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "alloc flagged against a baseline without alloc"
  | Error msg -> Alcotest.fail msg);
  (* alloc numbers survive the JSON round-trip *)
  let path = Filename.temp_file "levioso_hist" ".json" in
  Bench_history.save path new_;
  (match Bench_history.load path with
  | Ok [ e ] -> (
    match (List.hd e.Bench_history.cells).Bench_history.alloc_mwords with
    | Some v -> Alcotest.(check (float 0.01)) "alloc round-trips" 15.0 v
    | None -> Alcotest.fail "alloc_mwords lost in round-trip")
  | Ok _ | Error _ -> Alcotest.fail "round-trip load failed");
  Sys.remove path

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
  (match Bench_history.of_matrix ~label:"sampled" matrix with
  | Ok e ->
    Alcotest.(check (list int)) "history cells carry the estimates"
      [ base_est; lev_est ]
      (List.map (fun c -> c.Bench_history.cycles) e.Bench_history.cells)
  | Error msg -> Alcotest.fail msg);
  let html = Html_report.render_exn matrix in
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
      Alcotest.test_case "history roundtrip and append" `Quick
        test_history_roundtrip_and_append;
      Alcotest.test_case "history of matrix" `Quick test_history_of_matrix;
      Alcotest.test_case "compare flags regression" `Quick
        test_compare_flags_regression;
      Alcotest.test_case "compare flags alloc regression" `Quick
        test_compare_flags_alloc_regression;
      Alcotest.test_case "sampled runs report their estimate" `Quick
        test_sampled_runs_report_estimate;
    ] )
