(* Request-level tracing: collector semantics (ids, parenting, drain
   order, per-domain buffers), byte-determinism of the exporters under
   an injected clock, access-record shape, and the latency-accounting
   primitives (fixed log-scale histograms, sliding-window exact
   percentiles). *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Span = Levioso_telemetry.Span

(* a deterministic clock: every reading advances by [step] *)
let counter_clock step =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. step;
    v

let test_collector_tree () =
  let spans = Span.create ~clock:(counter_clock 0.5) () in
  let root = Span.start spans ~trace:"tr-x" "submit" in
  Span.add_attr root "request" "r1";
  let child = Span.start spans ~trace:"tr-x" ~parent:(Span.id root) "cell" in
  Span.finish spans ~attrs:[ ("source", "sim") ] child;
  Span.finish spans root;
  (match Span.drain spans with
  | [ a; b ] ->
    Alcotest.(check string) "earlier start drains first" "submit" a.Span.name;
    Alcotest.(check int) "root is parentless" (-1) a.Span.parent;
    Alcotest.(check string) "both carry the trace" "tr-x" b.Span.trace;
    Alcotest.(check int) "child links to the root" a.Span.id b.Span.parent;
    Alcotest.(check bool) "add_attr before finish attrs" true
      (a.Span.attrs = [ ("request", "r1") ]
      && b.Span.attrs = [ ("source", "sim") ]);
    Alcotest.(check (float 1e-9)) "child duration" 0.5 (Span.duration b);
    Alcotest.(check (float 1e-9)) "root spans its child" 1.5 (Span.duration a)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)));
  Alcotest.(check int) "drain empties the buffers" 0
    (List.length (Span.drain spans))

let build_chrome () =
  let spans = Span.create ~clock:(counter_clock 0.001) () in
  let root = Span.start spans ~trace:"tr-1" "submit" in
  let cell = Span.start spans ~trace:"tr-1" ~parent:(Span.id root) "cell" in
  Span.finish spans ~attrs:[ ("source", "sim") ] cell;
  Span.finish spans root;
  Span.to_chrome (Span.drain spans)

let test_chrome_export () =
  let j = build_chrome () in
  Alcotest.(check string) "byte-deterministic given the fixed clock"
    (Json.to_string ~minify:true j)
    (Json.to_string ~minify:true (build_chrome ()));
  (match Schema.check ~what:"chrome trace" j with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
    let phases =
      List.filter_map
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.String s) -> Some s
          | _ -> None)
        evs
    in
    Alcotest.(check (list string))
      "one thread_name record, then the events" [ "M"; "X"; "X" ] phases;
    List.iter
      (fun e ->
        match Json.member "ph" e with
        | Some (Json.String "X") ->
          (match (Json.member "ts" e, Json.member "dur" e) with
          | Some (Json.Int ts), Some (Json.Int dur) ->
            Alcotest.(check bool) "ts non-negative" true (ts >= 0);
            Alcotest.(check bool) "dur at least 1us" true (dur >= 1)
          | _ -> Alcotest.fail "event without integer ts/dur");
          (match Json.member "args" e with
          | Some args ->
            Alcotest.(check bool) "args carry span+parent+trace" true
              (Json.member "span" args <> None
              && Json.member "parent" args <> None
              && Json.member "trace" args <> None)
          | None -> Alcotest.fail "event without args")
        | _ -> ())
      evs
  | _ -> Alcotest.fail "no traceEvents array"

(* The exact bytes of the export: key order, the untraced track, attrs
   after the span/parent/trace args. *)
let test_chrome_bytes () =
  let spans = Span.create ~clock:(counter_clock 0.001) () in
  let root = Span.start spans ~trace:"tr-1" "submit" in
  Span.add_attr root "request" "r1";
  let cell = Span.start spans ~trace:"tr-1" ~parent:(Span.id root) "cell" in
  Span.finish spans ~attrs:[ ("source", "sim") ] cell;
  let bare = Span.start spans "decode" in
  Span.finish spans bare;
  Span.finish spans root;
  let expected =
    String.concat ""
      [
        {|{"schema_version":2,"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"tr-1"}},|};
        {|{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"untraced"}},|};
        {|{"name":"submit","cat":"serve","ph":"X","ts":0,"dur":5000,"pid":0,"tid":0,"args":{"span":0,"parent":-1,"trace":"tr-1","request":"r1"}},|};
        {|{"name":"cell","cat":"serve","ph":"X","ts":1000,"dur":1000,"pid":0,"tid":0,"args":{"span":1,"parent":0,"trace":"tr-1","source":"sim"}},|};
        {|{"name":"decode","cat":"serve","ph":"X","ts":3000,"dur":1000,"pid":0,"tid":1,"args":{"span":2,"parent":-1,"trace":""}}]}|};
      ]
  in
  Alcotest.(check string) "bytes" expected
    (Json.to_string ~minify:true (Span.to_chrome ~epoch:0.001 (Span.drain spans)))

let test_access_record () =
  let make () =
    Span.access_record ~ts:12.5 ~trace:"tr-1" ~request:"r1" ~index:2
      ~workload:"stream" ~policy:"levioso" ~source:"sim"
      ~stages:[ ("queue", 0.001); ("exec", 0.25); ("serialize", -1e-9) ]
      ~total_s:0.3 ()
  in
  let r = make () in
  Alcotest.(check string) "byte-deterministic"
    (Json.to_string ~minify:true r)
    (Json.to_string ~minify:true (make ()));
  (match Schema.check ~what:"access record" r with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let str name =
    match Json.member name r with Some (Json.String s) -> s | _ -> "?"
  in
  Alcotest.(check string) "kind" "levioso-serve-access" (str "kind");
  Alcotest.(check string) "workload" "stream" (str "workload");
  let num name =
    match Json.member name r with
    | Some (Json.Float v) -> v
    | Some (Json.Int v) -> float_of_int v
    | _ -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check (float 0.)) "negative stage clamped to zero" 0.
    (num "serialize_s");
  Alcotest.(check (float 1e-12)) "stage suffix naming" 0.25 (num "exec_s");
  Alcotest.(check bool) "no error field when none" true
    (Json.member "error" r = None);
  let with_err =
    Span.access_record ~ts:0. ~trace:"t" ~request:"r" ~index:0 ~workload:"w"
      ~policy:"p" ~source:"error" ~error:"boom" ~stages:[] ~total_s:0. ()
  in
  Alcotest.(check bool) "error field present when set" true
    (match Json.member "error" with_err with
    | Some (Json.String "boom") -> true
    | _ -> false)

let test_hist () =
  let bounds = Span.Hist.bounds in
  Alcotest.(check int) "25 shared bounds (1-2.5-5 per decade + 100s)" 25
    (Array.length bounds);
  let increasing = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then increasing := false)
    bounds;
  Alcotest.(check bool) "bounds strictly increasing" true !increasing;
  let h = Span.Hist.create () in
  Alcotest.(check int) "empty count" 0 (Span.Hist.count h);
  Alcotest.(check (float 0.)) "empty percentile" 0.
    (Span.Hist.percentile h 0.5);
  List.iter (Span.Hist.observe h) [ 5e-7; 0.002; 0.002; 0.3; 1000.0 ];
  Alcotest.(check int) "count" 5 (Span.Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 1000.3040005 (Span.Hist.sum h);
  let buckets = Span.Hist.buckets h in
  Alcotest.(check int) "one bucket per bound" 25 (List.length buckets);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative counts monotone" true (monotone buckets);
  let _, last = List.nth buckets 24 in
  Alcotest.(check int) "overflow (1000s) excluded from the last bound" 4 last;
  Alcotest.(check (float 1e-12)) "p50 upper-bound estimate" 0.0025
    (Span.Hist.percentile h 0.5)

let test_window () =
  let w = Span.Window.create 4 in
  Alcotest.(check bool) "empty window has no percentile" true
    (Span.Window.percentile w 0.5 = None);
  List.iter (Span.Window.observe w) [ 4.; 1.; 3.; 2. ];
  Alcotest.(check int) "count" 4 (Span.Window.count w);
  Alcotest.(check (option (float 0.))) "exact p50" (Some 2.)
    (Span.Window.percentile w 0.5);
  Alcotest.(check (option (float 0.))) "p99 is the max" (Some 4.)
    (Span.Window.percentile w 0.99);
  List.iter (Span.Window.observe w) [ 10.; 10.; 10.; 10. ];
  Alcotest.(check int) "seen is cumulative" 8 (Span.Window.seen w);
  Alcotest.(check int) "held window capped at capacity" 4 (Span.Window.count w);
  Alcotest.(check (option (float 0.))) "old samples evicted" (Some 10.)
    (Span.Window.percentile w 0.5)

let test_concurrent_finish () =
  let spans = Span.create () in
  let worker i =
    for _ = 1 to 100 do
      let sp = Span.start spans ~trace:(Printf.sprintf "t%d" i) "w" in
      Span.finish spans sp
    done
  in
  let ts = List.init 4 (fun i -> Thread.create worker i) in
  List.iter Thread.join ts;
  Alcotest.(check int) "every span collected exactly once" 400
    (List.length (Span.drain spans))

let test_mint_trace_unique () =
  let a = Span.mint_trace () and b = Span.mint_trace () in
  Alcotest.(check bool) "successive trace ids distinct" true (a <> b);
  Alcotest.(check bool) "trace ids carry the tr- prefix" true
    (String.length a > 3 && String.sub a 0 3 = "tr-")

let suite =
  ( "span",
    [
      Alcotest.test_case "collector: tree, attrs, drain order" `Quick
        test_collector_tree;
      Alcotest.test_case "chrome export: deterministic + well-formed" `Quick
        test_chrome_export;
      Alcotest.test_case "chrome export: bytes pinned" `Quick test_chrome_bytes;
      Alcotest.test_case "access record: shape + clamping" `Quick
        test_access_record;
      Alcotest.test_case "histogram: fixed log-scale buckets" `Quick test_hist;
      Alcotest.test_case "window: exact sliding percentiles" `Quick test_window;
      Alcotest.test_case "collector: concurrent finishers" `Quick
        test_concurrent_finish;
      Alcotest.test_case "trace ids: process-unique" `Quick
        test_mint_trace_unique;
    ] )
