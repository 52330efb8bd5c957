(* Continuous-telemetry building blocks, each driven by explicit fake
   clocks so time never leaks into the assertions: the on-disk tsdb
   (round-trips, byte-determinism, clock-read economy, rotation,
   retention, time-range reads, malformed and torn lines) and the HTML
   dashboard (deterministic rendering). *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Tsdb = Levioso_telemetry.Tsdb
module Dashboard = Levioso_uarch.Dashboard

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

(* A clock that returns 100, 101, 102, ... and counts its reads. *)
let ticking ?(start = 100.) () =
  let reads = ref 0 in
  let clock () =
    let v = start +. float_of_int !reads in
    incr reads;
    v
  in
  (clock, reads)

let fail_fmt fmt = Printf.ksprintf (fun msg -> Alcotest.fail msg) fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let read_all dir =
  match Tsdb.read_dir dir with
  | Ok samples -> samples
  | Error msg -> Alcotest.fail msg

(* ---------- tsdb ---------- *)

let test_tsdb_round_trip () =
  let dir = temp_dir "tsdb-rt" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  let s1 = { Tsdb.ts = 100.; fields = [ ("queue_depth", 3.); ("requests", 10.) ] } in
  let s2 = { Tsdb.ts = 101.; fields = [ ("queue_depth", 0.); ("requests", 12.) ] } in
  Tsdb.append t s1.Tsdb.fields;
  Tsdb.append t s2.Tsdb.fields;
  Tsdb.close t;
  match read_all dir with
  | [ a; b ] ->
    Alcotest.(check bool) "first sample round-trips" true (a = s1);
    Alcotest.(check bool) "second sample round-trips" true (b = s2)
  | samples -> fail_fmt "expected 2 samples, got %d" (List.length samples)

let test_tsdb_byte_deterministic () =
  let contents dir =
    List.map
      (fun path ->
        let ic = open_in_bin path in
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (Filename.basename path, body))
      (Tsdb.segment_files dir)
  in
  let write dir =
    let clock, _ = ticking () in
    let t = Tsdb.create ~clock ~dir () in
    for i = 1 to 20 do
      Tsdb.append t
        [ ("queue_depth", float_of_int (i mod 5)); ("nan", Float.nan) ]
    done;
    Tsdb.close t
  in
  let d1 = temp_dir "tsdb-da" and d2 = temp_dir "tsdb-db" in
  write d1;
  write d2;
  Alcotest.(check bool) "segments exist" true (contents d1 <> []);
  Alcotest.(check bool) "same clock, byte-identical segments" true
    (contents d1 = contents d2);
  (* the non-finite field was dropped at append time, not nulled *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "nan field dropped" false
        (List.mem_assoc "nan" s.Tsdb.fields))
    (read_all d1)

let test_tsdb_clock_economy () =
  let dir = temp_dir "tsdb-clock" in
  let clock, reads = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  Alcotest.(check int) "create reads no clock" 0 !reads;
  Tsdb.append t [ ("a", 1.) ];
  Alcotest.(check int) "append without ~ts reads once" 1 !reads;
  let ts = Tsdb.now t in
  Alcotest.(check int) "now reads once" 2 !reads;
  Tsdb.append ~ts t [ ("a", 2.) ];
  Tsdb.append ~ts t [ ("a", 3.) ];
  Alcotest.(check int) "explicit ~ts appends read nothing" 2 !reads;
  Tsdb.close t;
  Alcotest.(check int) "close reads nothing" 2 !reads

let test_tsdb_rotation_and_resume () =
  let dir = temp_dir "tsdb-rot" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~max_segment_bytes:200 ~dir () in
  for i = 1 to 10 do
    Tsdb.append t [ ("v", float_of_int i) ]
  done;
  Tsdb.close t;
  let segs = Tsdb.segment_files dir in
  Alcotest.(check bool) "small segment cap forces rotation" true
    (List.length segs > 1);
  Alcotest.(check int) "no samples lost across rotation" 10
    (List.length (read_all dir));
  (* a second writer resumes after the existing segments *)
  let clock2, _ = ticking ~start:200. () in
  let t2 = Tsdb.create ~clock:clock2 ~max_segment_bytes:200 ~dir () in
  Tsdb.append t2 [ ("v", 11.) ];
  Tsdb.close t2;
  Alcotest.(check int) "restart extends instead of clobbering" 11
    (List.length (read_all dir))

let test_tsdb_retention () =
  let dir = temp_dir "tsdb-ret" in
  let clock, _ = ticking () in
  let t =
    Tsdb.create ~clock ~max_segment_bytes:200 ~max_total_bytes:600 ~dir ()
  in
  for i = 1 to 50 do
    Tsdb.append t [ ("v", float_of_int i) ]
  done;
  Tsdb.close t;
  let total =
    List.fold_left
      (fun acc p -> acc + (Unix.stat p).Unix.st_size)
      0 (Tsdb.segment_files dir)
  in
  (* the active segment may carry the store past the cap by at most one
     segment's worth; rotated history stays under budget *)
  Alcotest.(check bool) "retention bounds the store" true (total <= 900);
  match read_all dir with
  | [] -> Alcotest.fail "retention deleted everything"
  | samples ->
    let last = List.nth samples (List.length samples - 1) in
    Alcotest.(check (float 0.0)) "newest sample survives" 50.
      (List.assoc "v" last.Tsdb.fields)

let test_tsdb_time_range () =
  let dir = temp_dir "tsdb-range" in
  let clock, _ = ticking () in
  (* ts 100..109 *)
  let t = Tsdb.create ~clock ~dir () in
  for i = 1 to 10 do
    Tsdb.append t [ ("v", float_of_int i) ]
  done;
  Tsdb.close t;
  let read ?since ?until ?last () =
    match Tsdb.read_dir ?since ?until ?last dir with
    | Ok samples -> List.map (fun s -> s.Tsdb.ts) samples
    | Error msg -> Alcotest.fail msg
  in
  let count ?since ?until () = List.length (read ?since ?until ()) in
  Alcotest.(check int) "no bounds" 10 (count ());
  Alcotest.(check int) "since is inclusive" 5 (count ~since:105. ());
  Alcotest.(check int) "until is inclusive" 3 (count ~until:102. ());
  Alcotest.(check int) "both bounds" 2 (count ~since:104. ~until:105. ());
  Alcotest.(check (list (float 0.))) "last keeps the newest" [ 108.; 109. ]
    (read ~last:2 ());
  Alcotest.(check (list (float 0.))) "last applies after the range"
    [ 101.; 102. ]
    (read ~until:102. ~last:2 ());
  Alcotest.(check int) "last past the count keeps all" 10
    (List.length (read ~last:50 ()));
  Alcotest.(check int) "last 0 keeps all" 10 (List.length (read ~last:0 ()))

(* A good sample on line 1, then a line that is not one: an untagged
   sample, and an alert transition, a record kind older daemons wrote
   to the same segments. *)
let test_tsdb_rejects_garbage () =
  List.iter
    (fun (what, line) ->
      let dir = temp_dir "tsdb-bad" in
      let clock, _ = ticking () in
      let t = Tsdb.create ~clock ~dir () in
      Tsdb.append t [ ("v", 1.) ];
      Tsdb.close t;
      let seg = List.hd (Tsdb.segment_files dir) in
      let oc = open_out_gen [ Open_append ] 0o644 seg in
      output_string oc (line ^ "\n");
      close_out oc;
      match Tsdb.read_dir dir with
      | Ok _ -> fail_fmt "%s should fail the read" what
      | Error msg ->
        Alcotest.(check bool)
          (what ^ ": error names the segment and line") true
          (contains msg (Filename.basename seg ^ ":2")))
    [
      ("untagged line", {|{"kind":"levioso-tsdb-sample"}|});
      ( "alert line",
        Printf.sprintf
          {|{"schema_version":%d,"kind":"levioso-tsdb-alert","ts":101,"rule":"requests > 0","state":"firing"}|}
          Schema.version );
    ]

(* A reader racing an append sees the segment's complete lines: an
   unterminated last line is skipped, and the same text ended by a
   newline is an error like any malformed line. *)
let test_tsdb_torn_last_line () =
  let dir = temp_dir "tsdb-torn" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  Tsdb.append t [ ("v", 1.) ];
  Tsdb.close t;
  let seg = List.hd (Tsdb.segment_files dir) in
  let append text =
    let oc = open_out_gen [ Open_append ] 0o644 seg in
    output_string oc text;
    close_out oc
  in
  append
    (Printf.sprintf {|{"schema_version":%d,"kind":"levioso-tsdb-sam|}
       Schema.version);
  Alcotest.(check (list (float 0.))) "the complete sample reads" [ 100. ]
    (List.map (fun s -> s.Tsdb.ts) (read_all dir));
  append "\n";
  match Tsdb.read_dir dir with
  | Ok _ -> Alcotest.fail "a terminated bad line should fail the read"
  | Error msg ->
    Alcotest.(check bool) "error names the segment and line" true
      (contains msg (Filename.basename seg ^ ":2"))

let test_tsdb_missing_dir () =
  let dir = temp_dir "tsdb-missing" in
  (match Tsdb.read_dir dir with
  | Ok _ -> Alcotest.fail "a missing directory should fail the read"
  | Error msg ->
    Alcotest.(check bool) "error names the directory" true (contains msg dir));
  (* the writer still creates it *)
  let t = Tsdb.create ~dir () in
  Tsdb.close t;
  Alcotest.(check int) "created directory reads as empty" 0
    (List.length (read_all dir))

(* ---------- dashboard ---------- *)

let test_dashboard_deterministic () =
  let dir = temp_dir "tsdb-dash" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  for i = 0 to 9 do
    Tsdb.append t
      [
        ("queue_depth", float_of_int (i mod 3));
        ("requests_per_s", 2.5 +. float_of_int i);
        ("errors_per_s", 0.);
        ("total_p50_s", 0.001);
        ("total_p95_s", 0.002 +. (0.0001 *. float_of_int i));
        ("total_p99_s", 0.004);
        ("cache_hit_share", 0.5);
        ("gc_heap_words", 1e6 +. (1e4 *. float_of_int i));
      ]
  done;
  Tsdb.close t;
  let samples = read_all dir in
  let html =
    match Dashboard.render samples with
    | Ok html -> html
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (result string string))
    "re-render byte-identical" (Ok html) (Dashboard.render samples);
  let golden =
    In_channel.with_open_bin "golden_dashboard.html" In_channel.input_all
  in
  if not (String.equal html golden) then
    fail_fmt "rendered dashboard differs from golden_dashboard.html (%d vs %d \
              bytes)"
      (String.length html) (String.length golden);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (contains html needle))
    [
      "<h2>Queue depth</h2>"; "<h2>Requests per second</h2>";
      "<h2>Error rate</h2>"; "<h2>End-to-end latency percentiles</h2>";
      "<h2>Cache hit share</h2>"; "<h2>GC heap</h2>"; "<h2>Latest sample</h2>";
      "<polyline"; "10 samples";
    ];
  Alcotest.(check bool) "no external references" false
    (contains html "http");
  match Dashboard.render [] with
  | Ok _ -> Alcotest.fail "empty history should not render"
  | Error msg ->
    Alcotest.(check bool) "empty error mentions samples" true
      (contains msg "no samples")

let suite =
  ( "tsdb",
    [
      Alcotest.test_case "tsdb: append/read round-trip" `Quick
        test_tsdb_round_trip;
      Alcotest.test_case "tsdb: byte-deterministic under a fixed clock" `Quick
        test_tsdb_byte_deterministic;
      Alcotest.test_case "tsdb: clock-read economy" `Quick
        test_tsdb_clock_economy;
      Alcotest.test_case "tsdb: rotation and restart resume" `Quick
        test_tsdb_rotation_and_resume;
      Alcotest.test_case "tsdb: size retention" `Quick test_tsdb_retention;
      Alcotest.test_case "tsdb: since/until reads" `Quick test_tsdb_time_range;
      Alcotest.test_case "tsdb: malformed line fails the read" `Quick
        test_tsdb_rejects_garbage;
      Alcotest.test_case "tsdb: a torn last line is skipped" `Quick
        test_tsdb_torn_last_line;
      Alcotest.test_case "tsdb: missing directory fails the read" `Quick
        test_tsdb_missing_dir;
      Alcotest.test_case "dashboard: deterministic render" `Quick
        test_dashboard_deterministic;
    ] )
