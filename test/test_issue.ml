(* The issue stage is wakeup-driven and charges operand waits in bulk,
   so the stall table is only complete after a flush.  These tests pin
   its contents to values recorded before that change and check that
   reading it is idempotent at any cycle.  The quick pass also pins each
   cell's cache counters. *)

module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Cache = Levioso_uarch.Cache
module Sampler = Levioso_uarch.Sampler
module Sim_stats = Levioso_uarch.Sim_stats
module Stall = Levioso_telemetry.Stall
module Json = Levioso_telemetry.Json
module Registry = Levioso_core.Registry
module Workload = Levioso_workload.Workload
module Catalog = Levioso_serve.Catalog

let baseline_path = "../bench/history/baseline-quick.json"
let golden_path = "golden_stalls_quick.txt"
let cache_golden_path = "golden_cache_quick.txt"

let stall_digest program stall =
  Digest.to_hex
    (Digest.string
       (Json.to_string ~minify:true
          (Stall.to_json ~top_k:(Array.length program) stall)))

(* The default-config cells of the committed quick baseline, in file
   order. *)
let quick_cells () =
  let doc =
    Json.of_string_exn (In_channel.with_open_bin baseline_path In_channel.input_all)
  in
  let entry =
    List.find
      (fun e -> Json.to_string_exn (Json.member_exn "label" e) = "baseline")
      (Json.to_list_exn (Json.member_exn "entries" doc))
  in
  List.map
    (fun c ->
      ( Json.to_string_exn (Json.member_exn "workload" c),
        Json.to_string_exn (Json.member_exn "policy" c) ))
    (Json.to_list_exn (Json.member_exn "cells" entry))

let cache_line h =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Cache.Hierarchy.stats h))

(* Two lines per cell: workload, policy, cycles and the digest of the
   full per-PC stall table; and workload, policy and the cache
   counters. *)
let quick_lines (workload, policy) =
  let w = Catalog.find_workload_exn workload in
  let pipe =
    Pipeline.create ~mem_init:w.Workload.mem_init Config.default
      ~policy:(Registry.find_exn policy) w.Workload.program
  in
  Pipeline.run pipe;
  ( Printf.sprintf "%s %s %d %s" workload policy
      (Pipeline.stats pipe).Sim_stats.cycles
      (stall_digest w.Workload.program (Pipeline.stall_attribution pipe)),
    Printf.sprintf "%s %s %s" workload policy
      (cache_line (Pipeline.hierarchy pipe)) )

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_quick_stall_tables () =
  let stalls, caches = List.split (List.map quick_lines (quick_cells ())) in
  List.iter
    (fun (path, actual) ->
      let expected = read_lines path in
      Alcotest.(check int) (path ^ " cell count") (List.length expected)
        (List.length actual);
      List.iter2 (fun e a -> Alcotest.(check string) "cell" e a) expected actual)
    [ (golden_path, stalls); (cache_golden_path, caches) ]

let stepped_digest ~read_every cfg ~policy workload =
  let w = Catalog.find_workload_exn workload in
  let pipe =
    Pipeline.create ~mem_init:w.Workload.mem_init cfg
      ~policy:(Registry.find_exn policy) w.Workload.program
  in
  if read_every then
    while not (Pipeline.halted pipe) do
      Pipeline.step pipe;
      ignore (Stall.total (Pipeline.stall_attribution pipe) : int)
    done
  else Pipeline.run pipe;
  stall_digest w.Workload.program (Pipeline.stall_attribution pipe)

(* A read flushes the deferred operand waits through the last issue
   stage; reading after every cycle must add up to the same table as
   one read at the end, whatever the window size. *)
let test_read_idempotent () =
  List.iter
    (fun rob ->
      let cfg = { Config.default with Config.rob_size = rob } in
      List.iter
        (fun (workload, policy) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s rob=%d" workload policy rob)
            (stepped_digest ~read_every:false cfg ~policy workload)
            (stepped_digest ~read_every:true cfg ~policy workload))
        [ ("pchase", "levioso"); ("stream", "delay"); ("compact", "stt") ])
    [ 5; 37; 130 ]

(* The sampler reads each interval's table mid-flight, with operand
   waits still pending in the window.  Digests recorded when every wait
   was charged cycle by cycle. *)
let sampled_pins =
  [
    ("stream", "levioso", "1000:1000:5", "6aa40f152d16fc5843de2c441c8d9fe4");
    ("compact", "delay", "1000:500:4", "1252a7d9f40c6d436f43dca06b37badc");
  ]

let sampled_digest (workload, policy, spec) =
  let w = Catalog.find_workload_exn workload in
  let sp =
    match Sampler.parse spec with
    | Ok (Some s) -> s
    | Ok None | Error _ -> Alcotest.failf "bad spec %s" spec
  in
  let r =
    Sampler.run ~mem_init:w.Workload.mem_init sp Config.default
      ~policy:(Registry.find_exn policy) w.Workload.program
  in
  Alcotest.(check int)
    "pooled policy_gate = policy_stall_cycles"
    r.Sampler.stats.Sim_stats.policy_stall_cycles
    (Stall.count r.Sampler.stall Stall.Policy_gate);
  stall_digest w.Workload.program r.Sampler.stall

let test_sampled_pooled_stalls () =
  List.iter
    (fun (workload, policy, spec, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s @ %s" workload policy spec)
        digest
        (sampled_digest (workload, policy, spec)))
    sampled_pins

(* The sampler's one hierarchy counts demand accesses across every
   detailed interval and the fast tier in between. *)
let test_sampled_cache_counters () =
  let w = Catalog.find_workload_exn "compact" in
  let sp =
    match Sampler.parse "1000:500:4" with
    | Ok (Some s) -> s
    | Ok None | Error _ -> Alcotest.fail "bad spec"
  in
  let r =
    Sampler.run ~mem_init:w.Workload.mem_init sp Config.default
      ~policy:(Registry.find_exn "levioso") w.Workload.program
  in
  Alcotest.(check string) "compact/levioso @ 1000:500:4"
    "l1_hits=11369 l1_misses=1126 l2_hits=1 l2_misses=1125"
    (cache_line r.Sampler.hierarchy)

(* The stall tracer sees every charge of the table exactly once, and
   each instruction's cycles in ascending order. *)
let test_tracer_matches_table () =
  List.iter
    (fun (workload, policy) ->
      let w = Catalog.find_workload_exn workload in
      let pipe =
        Pipeline.create ~mem_init:w.Workload.mem_init
          { Config.default with Config.rob_size = 37 }
          ~policy:(Registry.find_exn policy) w.Workload.program
      in
      let counts = Array.make (List.length Stall.all_causes) 0 in
      (* seq -> last cycle seen; a seq reused after a squash starts over
         at a later cycle, so ascending order still holds per seq *)
      let last = Hashtbl.create 256 in
      let unordered = ref 0 in
      Pipeline.set_stall_tracer pipe (fun ~cycle ~seq ~pc:_ ~cause ->
          let i = Stall.cause_index cause in
          counts.(i) <- counts.(i) + 1;
          (match Hashtbl.find_opt last seq with
          | Some c when c >= cycle -> incr unordered
          | Some _ | None -> ());
          Hashtbl.replace last seq cycle);
      Pipeline.run pipe;
      let stall = Pipeline.stall_attribution pipe in
      let where = workload ^ "/" ^ policy in
      Alcotest.(check int) (where ^ " ascending per seq") 0 !unordered;
      List.iter
        (fun cause ->
          let expected =
            match cause with
            | Stall.Rob_full -> 0 (* fetch-side, no instruction *)
            | Stall.Policy_gate | Stall.Operand_wait | Stall.Lsq_order
            | Stall.Exec_port ->
              Stall.count stall cause
          in
          Alcotest.(check int)
            (where ^ " " ^ Stall.cause_to_string cause)
            expected
            counts.(Stall.cause_index cause))
        Stall.all_causes)
    [ ("pchase", "levioso"); ("stream", "fence"); ("compact", "dom") ]

(* Draining a wake row: lowest set bit first, across word boundaries,
   leaving the row empty. *)
let test_pop_min () =
  let module Slot_mask = Levioso_uarch.Slot_mask in
  let m = Slot_mask.create ~rows:2 ~bits:128 in
  List.iter (Slot_mask.add m 1) [ 127; 5; 64; 31; 32; 0 ];
  Slot_mask.add m 0 7;
  let rec drain acc =
    match Slot_mask.pop_min m 1 with
    | -1 -> List.rev acc
    | b -> drain (b :: acc)
  in
  Alcotest.(check (list int)) "ascending" [ 0; 5; 31; 32; 64; 127 ] (drain []);
  Alcotest.(check bool) "row drained" true (Slot_mask.is_empty m 1);
  Alcotest.(check bool) "other row kept" true (Slot_mask.mem m 0 7)

(* Every bit position alone in a row, across all four words. *)
let test_pop_min_each_position () =
  let module Slot_mask = Levioso_uarch.Slot_mask in
  let m = Slot_mask.create ~rows:1 ~bits:128 in
  for b = 0 to 127 do
    Slot_mask.add m 0 b;
    Alcotest.(check int) (Printf.sprintf "bit %d" b) b (Slot_mask.pop_min m 0);
    Alcotest.(check int) "then empty" (-1) (Slot_mask.pop_min m 0)
  done

let suite =
  ( "issue",
    [
      Alcotest.test_case "quick cells: full per-PC stall tables pinned" `Slow
        test_quick_stall_tables;
      Alcotest.test_case "stall read is idempotent (rob 5/37/130)" `Quick
        test_read_idempotent;
      Alcotest.test_case "sampled pooled stalls pinned" `Quick
        test_sampled_pooled_stalls;
      Alcotest.test_case "sampled cache counters pinned" `Quick
        test_sampled_cache_counters;
      Alcotest.test_case "stall tracer matches the table" `Quick
        test_tracer_matches_table;
      Alcotest.test_case "wake rows drain lowest bit first" `Quick test_pop_min;
      Alcotest.test_case "pop_min finds every bit position" `Quick
        test_pop_min_each_position;
    ] )
