(* The issue stage is wakeup-driven and charges operand waits in bulk,
   so the stall table is only complete after a flush.  These tests pin
   its contents to values recorded before that change and check that
   reading it is idempotent at any cycle.  The quick pass also pins each
   cell's cache counters and, per policy, what its cells allocate
   (golden_alloc_quick.txt); [Engine.run_cell] must report the pinned
   cycles too.  Together with bench/history/baseline-quick.json these
   are the repository's performance contract. *)

module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Cache = Levioso_uarch.Cache
module Sampler = Levioso_uarch.Sampler
module Sim_stats = Levioso_uarch.Sim_stats
module Stall = Levioso_telemetry.Stall
module Hostprof = Levioso_telemetry.Hostprof
module Json = Levioso_telemetry.Json
module Registry = Levioso_core.Registry
module Workload = Levioso_workload.Workload
module Catalog = Levioso_serve.Catalog
module Engine = Levioso_serve.Engine
module Protocol = Levioso_serve.Protocol
module Summary = Levioso_uarch.Summary

let baseline_path = "../bench/history/baseline-quick.json"
let golden_path = "golden_stalls_quick.txt"
let cache_golden_path = "golden_cache_quick.txt"
let alloc_golden_path = "golden_alloc_quick.txt"

(* What one quick cell allocated. *)
type alloc = {
  policy : string;
  cycles : int;
  run_minor : float;  (** minor words in [Pipeline.run] *)
  cell_words : float;  (** words in [create] + [run] *)
}

let stall_digest program stall =
  Digest.to_hex
    (Digest.string
       (Json.to_string ~minify:true
          (Stall.to_json ~top_k:(Array.length program) stall)))

(* The default-config cells of the committed quick baseline, in file
   order: workload, policy, cycles. *)
let baseline_cells () =
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
      let field k = Json.member_exn k c in
      ( Json.to_string_exn (field "workload"),
        Json.to_string_exn (field "policy"),
        Json.to_int_exn (field "cycles") ))
    (Json.to_list_exn (Json.member_exn "cells" entry))

let quick_cells () = List.map (fun (w, p, _) -> (w, p)) (baseline_cells ())

let cache_line h =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Cache.Hierarchy.stats h))

(* Two lines per cell: workload, policy, cycles and the digest of the
   full per-PC stall table; and workload, policy and the cache
   counters.  Also what the cell allocated: minor words in [run] and
   words in [create] + [run]. *)
let quick_lines (workload, policy) =
  let w = Catalog.find_workload_exn workload in
  let pipe, created =
    Hostprof.measure (fun () ->
        Pipeline.create ~mem_init:w.Workload.mem_init Config.default
          ~policy:(Registry.find_exn policy) w.Workload.program)
  in
  let (), ran = Hostprof.measure (fun () -> Pipeline.run pipe) in
  let cycles = (Pipeline.stats pipe).Sim_stats.cycles in
  ( Printf.sprintf "%s %s %d %s" workload policy cycles
      (stall_digest w.Workload.program (Pipeline.stall_attribution pipe)),
    Printf.sprintf "%s %s %s" workload policy
      (cache_line (Pipeline.hierarchy pipe)),
    {
      policy;
      cycles;
      run_minor = ran.Hostprof.minor_words;
      cell_words = Hostprof.alloc_words (Hostprof.add created ran);
    } )

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* The allocation pin: per policy, minor words per simulated cycle in
   [run] over all of the policy's quick cells, and the largest
   [create] + [run] total of any one of its cells.  Each may exceed the
   value recorded in golden_alloc_quick.txt by [alloc_headroom] at most,
   as that file's header states; a recorded 0 stays a bound of 0. *)
let alloc_headroom = 0.01

let alloc_lines allocs =
  List.sort_uniq compare (List.map (fun a -> a.policy) allocs)
  |> List.map (fun policy ->
         let mine = List.filter (fun a -> a.policy = policy) allocs in
         let sum f = List.fold_left (fun acc a -> acc +. f a) 0. mine in
         ( policy,
           sum (fun a -> a.run_minor) /. sum (fun a -> float_of_int a.cycles),
           List.fold_left (fun m a -> Float.max m a.cell_words) 0. mine ))

let check_alloc_pin allocs =
  let recorded =
    List.map
      (fun l ->
        Scanf.sscanf l "%s %f %f" (fun policy per_cycle cell ->
            (policy, (per_cycle, cell))))
      (read_lines alloc_golden_path)
  in
  let measured = alloc_lines allocs in
  (* the test log shows the measured lines in the file's format *)
  List.iter (fun (p, c, t) -> Printf.printf "%s %.6f %.0f\n" p c t) measured;
  Alcotest.(check (list string))
    (alloc_golden_path ^ " policies") (List.map fst recorded)
    (List.map (fun (p, _, _) -> p) measured);
  List.iter
    (fun (policy, per_cycle, cell) ->
      let r_cycle, r_cell = List.assoc policy recorded in
      let within what measured recorded =
        if measured > recorded *. (1. +. alloc_headroom) then
          Alcotest.failf "%s %s: %.6f, recorded %.6f (+%.0f%% allowed)" policy
            what measured recorded (100. *. alloc_headroom)
      in
      within "minor words per cycle in run" per_cycle r_cycle;
      within "words per cell, create + run" cell r_cell)
    measured

let test_quick_stall_tables () =
  let stalls, caches, allocs =
    List.fold_right
      (fun cell (ss, cs, als) ->
        let s, c, a = quick_lines cell in
        (s :: ss, c :: cs, a :: als))
      (quick_cells ()) ([], [], [])
  in
  List.iter
    (fun (path, actual) ->
      let expected = read_lines path in
      Alcotest.(check int) (path ^ " cell count") (List.length expected)
        (List.length actual);
      List.iter2 (fun e a -> Alcotest.(check string) "cell" e a) expected actual)
    [ (golden_path, stalls); (cache_golden_path, caches) ];
  check_alloc_pin allocs

(* bench and the daemon compute a cell through [Engine.run_cell]: with
   no store it must report the pinned cycles, here for each policy's
   shortest quick cell. *)
let test_run_cell_cycles () =
  let shortest =
    List.fold_left
      (fun acc ((_, p, n) as c) ->
        match List.find_opt (fun (_, q, _) -> q = p) acc with
        | Some (_, _, m) when m <= n -> acc
        | _ -> c :: List.filter (fun (_, q, _) -> q <> p) acc)
      [] (baseline_cells ())
  in
  Alcotest.(check int) "one cell per policy"
    (List.length Registry.names)
    (List.length shortest);
  List.iter
    (fun (workload, policy, cycles) ->
      let outcome =
        Engine.run_cell
          {
            Protocol.config = Config.default;
            workload;
            policy;
            audit = false;
            sample = None;
          }
      in
      match Summary.stats outcome.Engine.summary with
      | Ok stats ->
        Alcotest.(check int) (workload ^ "/" ^ policy) cycles
          stats.Sim_stats.cycles
      | Error msg -> Alcotest.fail msg)
    (List.rev shortest)

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
      Alcotest.test_case "run_cell reports the pinned cycles" `Quick
        test_run_cell_cycles;
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
