module Rng = Levioso_util.Rng
module Stats = Levioso_util.Stats
module Report = Levioso_util.Report

let check = Alcotest.check

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (w >= 5 && w <= 9);
    let f = Rng.float r 2.0 in
    Alcotest.(check bool) "in [0,2)" true (f >= 0.0 && f < 2.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: each of 8 buckets should get 1000/8 +- 50%. *)
  let r = Rng.create 3 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Rng.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket within 50%" true (c > 500 && c < 1500))
    buckets

let test_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 20 Fun.id) sorted

let feq = Alcotest.float 1e-9

let test_mean () =
  check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "empty" 0.0 (Stats.mean [])

let test_geomean () =
  check feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check feq "single" 5.0 (Stats.geomean [ 5.0 ])

let test_stddev () =
  check feq "constant" 0.0 (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  check (Alcotest.float 1e-6) "known" 1.0 (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ])

let test_overhead_pct () =
  check feq "23%" 23.0 (Stats.overhead_pct ~baseline:100.0 123.0);
  check feq "0%" 0.0 (Stats.overhead_pct ~baseline:100.0 100.0)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_renders () =
  let s =
    Report.table ~header:[ "a"; "b" ] ~rows:[ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  List.iter
    (fun cell ->
      Alcotest.(check bool) ("contains " ^ cell) true (contains ~needle:cell s))
    [ "a"; "b"; "1"; "22"; "333"; "4" ]

let test_grouped_bars_renders () =
  let s =
    Report.grouped_bars ~title:"t" ~group_labels:[ "g1"; "g2" ]
      ~series:[ ("a", [ 1.0; 2.0 ]); ("b", [ 3.0; 4.0 ]) ]
      ()
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle s))
    [ "g1"; "g2"; "a"; "b"; "4.00" ]

let test_bar_chart_scales () =
  let s = Report.bar_chart ~width:10 ~title:"t" () [ ("x", 10.0); ("y", 5.0) ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "title + 2 bars" 3 (List.length lines)

let suite =
  ( "util",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
      Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "geomean" `Quick test_geomean;
      Alcotest.test_case "stddev" `Quick test_stddev;
      Alcotest.test_case "overhead pct" `Quick test_overhead_pct;
      Alcotest.test_case "table renders" `Quick test_table_renders;
      Alcotest.test_case "grouped bars" `Quick test_grouped_bars_renders;
      Alcotest.test_case "bar chart scales" `Quick test_bar_chart_scales;
    ] )
