(* Continuous-telemetry building blocks, each driven by explicit fake
   clocks so time never leaks into the assertions: the on-disk tsdb
   (round-trips, byte-determinism, clock-read economy, rotation,
   retention, time-range reads), the alert-rule engine (grammar,
   sustained-duration fire/resolve, _ms fallback, absent-metric
   resolution), the flight recorder (bounded rings, schema-tagged
   post-mortem) and the HTML dashboard (deterministic rendering). *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Tsdb = Levioso_telemetry.Tsdb
module Alerts = Levioso_telemetry.Alerts
module Flight = Levioso_telemetry.Flight
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
  | Ok records -> records
  | Error msg -> Alcotest.fail msg

(* ---------- tsdb ---------- *)

let test_tsdb_round_trip () =
  let dir = temp_dir "tsdb-rt" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  let s1 = Tsdb.append t [ ("queue_depth", 3.); ("requests", 10.) ] in
  Tsdb.append_alert t ~ts:s1.Tsdb.ts ~rule:"requests > 0" ~firing:true;
  let s2 = Tsdb.append t [ ("queue_depth", 0.); ("requests", 12.) ] in
  Tsdb.append_alert t ~ts:s2.Tsdb.ts ~rule:"requests > 0" ~firing:false;
  Tsdb.close t;
  match read_all dir with
  | [ Tsdb.Sample a; Tsdb.Alert f; Tsdb.Sample b; Tsdb.Alert r ] ->
    Alcotest.(check bool) "first sample round-trips" true (a = s1);
    Alcotest.(check bool) "second sample round-trips" true (b = s2);
    Alcotest.(check bool) "alert fired at the first sample" true
      (f.Tsdb.firing && f.Tsdb.a_ts = s1.Tsdb.ts
     && f.Tsdb.rule = "requests > 0");
    Alcotest.(check bool) "alert resolved at the second sample" true
      ((not r.Tsdb.firing) && r.Tsdb.a_ts = s2.Tsdb.ts)
  | records -> fail_fmt "expected 4 records, got %d" (List.length records)

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
      ignore
        (Tsdb.append t
           [ ("queue_depth", float_of_int (i mod 5)); ("nan", Float.nan) ])
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
    (function
      | Tsdb.Sample s ->
        Alcotest.(check bool) "nan field dropped" false
          (List.mem_assoc "nan" s.Tsdb.fields)
      | Tsdb.Alert _ -> ())
    (read_all d1)

let test_tsdb_clock_economy () =
  let dir = temp_dir "tsdb-clock" in
  let clock, reads = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  Alcotest.(check int) "create reads no clock" 0 !reads;
  ignore (Tsdb.append t [ ("a", 1.) ]);
  Alcotest.(check int) "append without ~ts reads once" 1 !reads;
  let ts = Tsdb.now t in
  Alcotest.(check int) "now reads once" 2 !reads;
  ignore (Tsdb.append ~ts t [ ("a", 2.) ]);
  Tsdb.append_alert t ~ts ~rule:"a > 0" ~firing:true;
  Alcotest.(check int) "explicit ~ts appends read nothing" 2 !reads;
  Tsdb.close t;
  Alcotest.(check int) "close reads nothing" 2 !reads

let test_tsdb_rotation_and_resume () =
  let dir = temp_dir "tsdb-rot" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~max_segment_bytes:200 ~dir () in
  for i = 1 to 10 do
    ignore (Tsdb.append t [ ("v", float_of_int i) ])
  done;
  Tsdb.close t;
  let segs = Tsdb.segment_files dir in
  Alcotest.(check bool) "small segment cap forces rotation" true
    (List.length segs > 1);
  Alcotest.(check int) "no records lost across rotation" 10
    (List.length (Tsdb.samples (read_all dir)));
  (* a second writer resumes after the existing segments *)
  let clock2, _ = ticking ~start:200. () in
  let t2 = Tsdb.create ~clock:clock2 ~max_segment_bytes:200 ~dir () in
  ignore (Tsdb.append t2 [ ("v", 11.) ]);
  Tsdb.close t2;
  Alcotest.(check int) "restart extends instead of clobbering" 11
    (List.length (Tsdb.samples (read_all dir)))

let test_tsdb_retention () =
  let dir = temp_dir "tsdb-ret" in
  let clock, _ = ticking () in
  let t =
    Tsdb.create ~clock ~max_segment_bytes:200 ~max_total_bytes:600 ~dir ()
  in
  for i = 1 to 50 do
    ignore (Tsdb.append t [ ("v", float_of_int i) ])
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
  match Tsdb.samples (read_all dir) with
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
    ignore (Tsdb.append t [ ("v", float_of_int i) ])
  done;
  Tsdb.close t;
  let read ?since ?until ?last () =
    match Tsdb.read_dir ?since ?until ?last dir with
    | Ok records -> List.map (fun s -> s.Tsdb.ts) (Tsdb.samples records)
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

let test_tsdb_rejects_garbage () =
  let dir = temp_dir "tsdb-bad" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  ignore (Tsdb.append t [ ("v", 1.) ]);
  Tsdb.close t;
  let seg = List.hd (Tsdb.segment_files dir) in
  let oc = open_out_gen [ Open_append ] 0o644 seg in
  output_string oc "{\"kind\":\"levioso-tsdb-sample\"}\n";
  close_out oc;
  match Tsdb.read_dir dir with
  | Ok _ -> Alcotest.fail "untagged line should fail the read"
  | Error msg ->
    Alcotest.(check bool) "error names the segment" true
      (contains msg (Filename.basename seg))

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

(* ---------- alert rules ---------- *)

let test_alert_parse () =
  let rules =
    match
      Alerts.parse
        "# comment\n\nqueue_depth >= 100 for 30s\ntotal_p99_ms > 500\n\
         errors_per_s > 0 for 1.5s\n"
    with
    | Ok rules -> rules
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list string))
    "canonical names"
    [
      "queue_depth >= 100 for 30s"; "total_p99_ms > 500";
      "errors_per_s > 0 for 1.5s";
    ]
    (List.map (fun (r : Alerts.rule) -> r.Alerts.name) rules);
  (match rules with
  | { Alerts.op = Alerts.Ge; threshold = 100.; for_s = 30.; _ } :: _ -> ()
  | _ -> Alcotest.fail "first rule misparsed");
  List.iter
    (fun bad ->
      match Alerts.parse bad with
      | Ok _ -> fail_fmt "accepted %S" bad
      | Error msg ->
        Alcotest.(check bool)
          (bad ^ " error names line 1") true
          (contains msg "line 1"))
    [
      "queue_depth ~ 3"; "queue_depth > tall"; "queue_depth > 1 for ever";
      "> 5"; "queue_depth >";
    ]

let test_alert_fire_resolve () =
  let rules =
    match Alerts.parse "queue_depth > 10 for 2s" with
    | Ok rules -> rules
    | Error msg -> Alcotest.fail msg
  in
  let t = Alerts.create rules in
  let feed now v =
    Alerts.eval t ~now ~lookup:(fun m ->
        if m = "queue_depth" then v else None)
  in
  Alcotest.(check int) "below threshold: nothing" 0
    (List.length (feed 0. (Some 5.)));
  Alcotest.(check int) "first breach: held 0s, no fire" 0
    (List.length (feed 1. (Some 50.)));
  Alcotest.(check int) "held 1s: still pending" 0
    (List.length (feed 2. (Some 50.)));
  (match feed 3. (Some 50.) with
  | [ { Alerts.firing = true; value = 50.; _ } ] ->
    Alcotest.(check int) "one rule firing" 1 (Alerts.firing t)
  | ts -> fail_fmt "held 2s: expected a fire, got %d transitions"
            (List.length ts));
  Alcotest.(check int) "still true: no repeat transition" 0
    (List.length (feed 4. (Some 50.)));
  (match feed 5. (Some 5.) with
  | [ { Alerts.firing = false; _ } ] ->
    Alcotest.(check int) "resolved" 0 (Alerts.firing t)
  | ts -> fail_fmt "drop below: expected resolve, got %d" (List.length ts));
  (* a dip resets the sustained-duration counter *)
  Alcotest.(check int) "re-breach restarts the hold" 0
    (List.length (feed 6. (Some 50.)));
  Alcotest.(check int) "one second in" 0 (List.length (feed 7. (Some 50.)));
  Alcotest.(check int) "fires again after a full hold" 1
    (List.length (feed 8. (Some 50.)))

let test_alert_ms_fallback_and_absent () =
  let rules =
    match Alerts.parse "total_p99_ms > 500" with
    | Ok rules -> rules
    | Error msg -> Alcotest.fail msg
  in
  let t = Alerts.create rules in
  (* the sampler records seconds; the rule speaks milliseconds *)
  let feed now v =
    Alerts.eval t ~now ~lookup:(fun m ->
        if m = "total_p99_s" then v else None)
  in
  Alcotest.(check int) "0.4s = 400ms: below" 0
    (List.length (feed 0. (Some 0.4)));
  (match feed 1. (Some 0.75) with
  | [ { Alerts.firing = true; value = 750.; _ } ] -> ()
  | _ -> Alcotest.fail "0.75s = 750ms should fire with the scaled value");
  (* metric vanishes (e.g. the window emptied): the rule resolves
     rather than staying stuck firing *)
  match feed 2. None with
  | [ { Alerts.firing = false; _ } ] -> ()
  | ts -> fail_fmt "absent metric: expected resolve, got %d" (List.length ts)

(* ---------- flight recorder ---------- *)

let test_flight_recorder () =
  let fl = Flight.create ~samples:4 ~records:2 () in
  Alcotest.(check int) "empty" 0 (Flight.sample_count fl);
  for i = 1 to 10 do
    Flight.add_sample fl
      { Tsdb.ts = float_of_int i; fields = [ ("v", float_of_int i) ] };
    Flight.add_record fl (Json.Obj [ ("i", Json.Int i) ])
  done;
  Alcotest.(check int) "ring capacity bounds samples" 4
    (Flight.sample_count fl);
  let doc = Flight.dump fl ~reason:"test" ~ts:99. in
  (match Schema.check ~what:"post-mortem" doc with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Json.member "kind" doc with
  | Some (Json.String "levioso-postmortem") -> ()
  | _ -> Alcotest.fail "post-mortem kind");
  (match Json.member "samples" doc with
  | Some (Json.List samples) ->
    (* the last N samples, oldest first *)
    Alcotest.(check (list string))
      "last 4 samples, oldest first"
      (List.map
         (fun i ->
           Json.to_string
             (Tsdb.sample_to_json
                { Tsdb.ts = float_of_int i; fields = [ ("v", float_of_int i) ] }))
         [ 7; 8; 9; 10 ])
      (List.map Json.to_string samples)
  | _ -> Alcotest.fail "post-mortem samples");
  (match Json.member "records" doc with
  | Some (Json.List [ a; b ]) ->
    Alcotest.(check string) "last 2 records survive" "[{\"i\":9},{\"i\":10}]"
      (Json.to_string ~minify:true (Json.List [ a; b ]))
  | _ -> Alcotest.fail "post-mortem records");
  let dir = temp_dir "flight" in
  (match Flight.write fl ~dir ~reason:"test" ~ts:99. with
  | Error msg -> Alcotest.fail msg
  | Ok path ->
    Alcotest.(check string) "first post-mortem name" "postmortem-000.json"
      (Filename.basename path);
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.of_string body with
    | Ok j -> Alcotest.(check bool) "file round-trips" true (j = doc)
    | Error msg -> Alcotest.fail msg));
  (* a second write does not clobber the first *)
  match Flight.write fl ~dir ~reason:"again" ~ts:100. with
  | Error msg -> Alcotest.fail msg
  | Ok path ->
    Alcotest.(check string) "second post-mortem name" "postmortem-001.json"
      (Filename.basename path)

(* Dumps from several threads at once (a SIGUSR1 dump in the sampler
   and a deadlock dump in a client thread, say) each claim their own
   postmortem-NNN.json slot: none overwrites another. *)
let test_flight_concurrent_dumps () =
  let fl = Flight.create () in
  let dir = temp_dir "flight-race" in
  let n = 8 in
  let go = Atomic.make false in
  let results = Array.make n (Error "not run") in
  let dump i () =
    while not (Atomic.get go) do
      Thread.yield ()
    done;
    results.(i) <-
      Flight.write fl ~dir ~reason:(Printf.sprintf "dump %d" i) ~ts:1.
  in
  let threads = List.init n (fun i -> Thread.create (dump i) ()) in
  Atomic.set go true;
  List.iter Thread.join threads;
  let reasons =
    Array.to_list
      (Array.map
         (function
           | Error msg -> Alcotest.fail msg
           | Ok path -> (
             match
               Json.of_string (In_channel.with_open_bin path In_channel.input_all)
             with
             | Ok doc -> (path, Json.(get to_string_exn) "reason" doc)
             | Error msg -> Alcotest.failf "%s: %s" path msg))
         results)
  in
  Alcotest.(check int) "one file per dump" n
    (List.length (List.sort_uniq compare (List.map fst reasons)));
  Alcotest.(check (list string))
    "each file holds its own dump"
    (List.init n (Printf.sprintf "dump %d"))
    (List.map snd reasons);
  Alcotest.(check int) "nothing else left in the directory" n
    (Array.length (Sys.readdir dir))

(* ---------- dashboard ---------- *)

let test_dashboard_deterministic () =
  let dir = temp_dir "tsdb-dash" in
  let clock, _ = ticking () in
  let t = Tsdb.create ~clock ~dir () in
  for i = 0 to 9 do
    let s =
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
    in
    if i = 5 then
      Tsdb.append_alert t ~ts:s.Tsdb.ts ~rule:"queue_depth > 1" ~firing:true
  done;
  Tsdb.close t;
  let records = read_all dir in
  let html =
    match Dashboard.render records with
    | Ok html -> html
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (result string string))
    "re-render byte-identical" (Ok html) (Dashboard.render records);
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
      "<h2>Cache hit share</h2>"; "<h2>GC heap</h2>"; "<h2>Alerts</h2>";
      "queue_depth &gt; 1"; "FIRING"; "<polyline"; "10 samples";
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
      Alcotest.test_case "tsdb: missing directory fails the read" `Quick
        test_tsdb_missing_dir;
      Alcotest.test_case "alerts: grammar" `Quick test_alert_parse;
      Alcotest.test_case "alerts: sustained fire then resolve" `Quick
        test_alert_fire_resolve;
      Alcotest.test_case "alerts: _ms fallback and absent metric" `Quick
        test_alert_ms_fallback_and_absent;
      Alcotest.test_case "flight: bounded rings and post-mortem" `Quick
        test_flight_recorder;
      Alcotest.test_case "flight: concurrent dumps take distinct slots" `Quick
        test_flight_concurrent_dumps;
      Alcotest.test_case "dashboard: deterministic render" `Quick
        test_dashboard_deterministic;
    ] )
