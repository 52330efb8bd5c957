(* Request-level tracing: collector semantics (ids, parenting, drain
   order, concurrent recorders), byte-determinism of the exporters,
   access-record shape, and the latency-accounting primitives (fixed
   log-scale histograms, sliding-window exact percentiles). *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Span = Levioso_telemetry.Span

(* Record one finished span under a fresh id and return the id. *)
let add spans ?(trace = "") ?(parent = -1) ?(attrs = []) name start_s stop_s =
  let id = Span.fresh_id spans in
  Span.add spans { Span.trace; id; parent; name; start_s; stop_s; attrs };
  id

let test_collector_tree () =
  let spans = Span.create () in
  (* the parent's id is taken first and the parent recorded last, as the
     daemon does for a submission and its cells *)
  let root = Span.fresh_id spans in
  ignore
    (add spans ~trace:"tr-x" ~parent:root ~attrs:[ ("source", "sim") ] "cell"
       0.5 1.0);
  Span.add spans
    {
      Span.trace = "tr-x";
      id = root;
      parent = -1;
      name = "submit";
      start_s = 0.;
      stop_s = 1.5;
      attrs = [ ("request", "r1") ];
    };
  (match Span.drain spans with
  | [ a; b ] ->
    Alcotest.(check string) "earlier start drains first" "submit" a.Span.name;
    Alcotest.(check int) "root is parentless" (-1) a.Span.parent;
    Alcotest.(check string) "both carry the trace" "tr-x" b.Span.trace;
    Alcotest.(check int) "child links to the root" a.Span.id b.Span.parent;
    Alcotest.(check bool) "ids are distinct" true (a.Span.id <> b.Span.id);
    Alcotest.(check bool) "attrs kept as given" true
      (a.Span.attrs = [ ("request", "r1") ]
      && b.Span.attrs = [ ("source", "sim") ])
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)));
  Alcotest.(check int) "drain empties the collector" 0
    (List.length (Span.drain spans));
  (* equal starts drain in id order *)
  let first = add spans "a" 2. 3. in
  let second = add spans "b" 2. 2.5 in
  Alcotest.(check (list int)) "ties broken by id" [ first; second ]
    (List.map (fun (f : Span.finished) -> f.Span.id) (Span.drain spans))

(* submit [0.001, 0.006] holding cell [0.002, 0.003], then an untraced
   root [0.004, 0.005] *)
let record_tree ?(root_attrs = []) ?(bare = false) spans =
  let root = Span.fresh_id spans in
  ignore
    (add spans ~trace:"tr-1" ~parent:root ~attrs:[ ("source", "sim") ] "cell"
       0.002 0.003);
  if bare then ignore (add spans "decode" 0.004 0.005);
  Span.add spans
    {
      Span.trace = "tr-1";
      id = root;
      parent = -1;
      name = "submit";
      start_s = 0.001;
      stop_s = 0.006;
      attrs = root_attrs;
    }

let build_chrome () =
  let spans = Span.create () in
  record_tree spans;
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
  let spans = Span.create () in
  record_tree ~root_attrs:[ ("request", "r1") ] ~bare:true spans;
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
  let bounds = Span.Latency.bounds in
  Alcotest.(check int) "25 shared bounds (1-2.5-5 per decade + 100s)" 25
    (Array.length bounds);
  let increasing = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then increasing := false)
    bounds;
  Alcotest.(check bool) "bounds strictly increasing" true !increasing;
  let h = Span.Latency.create () in
  Alcotest.(check int) "empty count" 0 (Span.Latency.read h).seen;
  List.iter (Span.Latency.observe h) [ 5e-7; 0.002; 0.002; 0.3; 1000.0 ];
  let r = Span.Latency.read h in
  Alcotest.(check int) "count" 5 r.seen;
  Alcotest.(check (float 1e-9)) "sum" 1000.3040005 r.sum;
  Alcotest.(check int) "one bucket per bound" 25 (List.length r.buckets);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative counts monotone" true (monotone r.buckets);
  let _, last = List.nth r.buckets 24 in
  Alcotest.(check int) "overflow (1000s) excluded from the last bound" 4 last;
  Alcotest.(check (option (float 0.))) "p50 is exact" (Some 0.002)
    (Span.Latency.nearest_rank (Lazy.force r.recent) 0.5)

let test_window () =
  let w = Span.Latency.create () in
  let pct q =
    Span.Latency.nearest_rank (Lazy.force (Span.Latency.read w).recent) q
  in
  Alcotest.(check bool) "empty window has no percentile" true (pct 0.5 = None);
  List.iter (Span.Latency.observe w) [ 4.; 1.; 3.; 2. ];
  Alcotest.(check int) "held" 4
    (Array.length (Lazy.force (Span.Latency.read w).recent));
  Alcotest.(check (option (float 0.))) "exact p50" (Some 2.) (pct 0.5);
  Alcotest.(check (option (float 0.))) "p99 is the max" (Some 4.) (pct 0.99);
  for _ = 1 to 512 do
    Span.Latency.observe w 10.
  done;
  let r = Span.Latency.read w in
  Alcotest.(check int) "seen is cumulative" 516 r.seen;
  Alcotest.(check int) "held window capped at 512" 512
    (Array.length (Lazy.force r.recent));
  Alcotest.(check int) "the histogram keeps every observation" 516
    (snd (List.nth r.buckets 24));
  Alcotest.(check (option (float 0.))) "old samples evicted" (Some 10.)
    (pct 0.5)

let test_concurrent_add () =
  let spans = Span.create () in
  let worker i =
    for k = 1 to 100 do
      ignore (add spans ~trace:(Printf.sprintf "t%d" i) "w" (float_of_int k) 0.)
    done
  in
  let ts = List.init 4 (fun i -> Thread.create worker i) in
  List.iter Thread.join ts;
  let drained = Span.drain spans in
  Alcotest.(check int) "every span collected exactly once" 400
    (List.length drained);
  Alcotest.(check int) "every id distinct" 400
    (List.length
       (List.sort_uniq compare
          (List.map (fun (f : Span.finished) -> f.Span.id) drained)))

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
        test_concurrent_add;
      Alcotest.test_case "trace ids: process-unique" `Quick
        test_mint_trace_unique;
    ] )
