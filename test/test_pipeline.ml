module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Emulator = Levioso_ir.Emulator
module Config = Levioso_uarch.Config
module Cache = Levioso_uarch.Cache
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats

let unsafe _cfg _program _pipe =
  { Pipeline.always_execute_policy with policy_name = "unsafe" }

let small_config = { Config.default with Config.mem_words = 65536 }

let run_pipe ?(config = small_config) ?mem_init src =
  let program = Parser.parse_exn src in
  let pipe = Pipeline.create ?mem_init config ~policy:unsafe program in
  Pipeline.run pipe;
  pipe

let check_matches_emulator ?(config = small_config) ?(mem_init = fun _ -> ()) src =
  let program = Parser.parse_exn src in
  let pipe = Pipeline.create ~mem_init config ~policy:unsafe program in
  Pipeline.run pipe;
  let reference =
    Emulator.run_program ~mem_words:config.Config.mem_words
      ~init:(fun s -> mem_init s.Emulator.mem)
      program
  in
  Alcotest.(check (array int)) "registers" reference.Emulator.regs (Pipeline.regs pipe);
  Alcotest.(check bool) "memory" true (reference.Emulator.mem = Pipeline.mem pipe);
  pipe

let test_straight_line () =
  let pipe = run_pipe {|
    mov r1, #5
    add r2, r1, #7
    mul r3, r2, r2
    halt
  |} in
  Alcotest.(check int) "r3" 144 (Pipeline.regs pipe).(3)

let test_matches_emulator_loop () =
  ignore
    (check_matches_emulator
       {|
          mov r1, #0
          mov r2, #0
        head:
          bge r1, #50, out
          add r2, r2, r1
          add r1, r1, #1
          jump head
        out:
          store [r0 + #100], r2
          halt
        |})

let test_matches_emulator_data_dependent_branches () =
  ignore
    (check_matches_emulator
       ~mem_init:(fun mem ->
         for i = 0 to 63 do
           mem.(1000 + i) <- (i * 37) mod 11
         done)
       {|
          mov r1, #0
          mov r2, #0
        head:
          bge r1, #64, out
          load r3, [r1 + #1000]
          rem r4, r3, #2
          beq r4, #0, even
          add r2, r2, r3
          jump next
        even:
          sub r2, r2, r3
        next:
          add r1, r1, #1
          jump head
        out:
          halt
        |})

let test_store_load_forwarding () =
  let pipe =
    run_pipe
      {|
        mov r1, #200
        store [r1 + #0], #33
        load r2, [r1 + #0]
        halt
      |}
  in
  Alcotest.(check int) "forwarded value" 33 (Pipeline.regs pipe).(2)

let test_ilp_speedup () =
  (* Independent adds should reach IPC > 1 on a 4-wide core. *)
  let b = Buffer.create 512 in
  for _ = 1 to 25 do
    Buffer.add_string b "add r1, r1, #1\nadd r2, r2, #1\nadd r3, r3, #1\nadd r4, r4, #1\n"
  done;
  Buffer.add_string b "halt\n";
  let pipe = run_pipe (Buffer.contents b) in
  let stats = Pipeline.stats pipe in
  Alcotest.(check bool)
    (Printf.sprintf "IPC %.2f > 1.5" (Sim_stats.ipc stats))
    true
    (Sim_stats.ipc stats > 1.5)

let test_dependent_chain_is_serial () =
  let b = Buffer.create 512 in
  for _ = 1 to 100 do
    Buffer.add_string b "add r1, r1, #1\n"
  done;
  Buffer.add_string b "halt\n";
  let pipe = run_pipe (Buffer.contents b) in
  Alcotest.(check bool) "at least 100 cycles" true (Pipeline.cycle pipe >= 100)

let test_cache_miss_costs_cycles () =
  let hit_src = {|
    load r1, [r0 + #1024]
    load r2, [r0 + #1024]
    halt
  |} in
  let pipe = run_pipe hit_src in
  let h = Pipeline.hierarchy pipe in
  let get k = List.assoc k (Cache.Hierarchy.stats h) in
  Alcotest.(check int) "one miss" 1 (get "l1_misses");
  Alcotest.(check int) "one hit" 1 (get "l1_hits")

let test_wrong_path_load_pollutes_cache () =
  (* always-taken predictor; branch is architecturally NOT taken, so the
     wrong path (taken target) executes a load that the correct path never
     performs.  The line must be in the cache after the run even though the
     load was squashed. *)
  let config = { small_config with Config.predictor = Config.Always_taken } in
  let program =
    Parser.parse_exn
      {|
        mov r1, #0
        load r2, [r0 + #512]   ; slow operand for the branch
        beq r2, #999, wrong    ; not taken architecturally, predicted taken
        mov r3, #1
        halt
      wrong:
        load r4, [r0 + #2048]  ; wrong-path transmitter
        halt
      |}
  in
  let pipe = Pipeline.create config ~policy:unsafe program in
  Pipeline.run pipe;
  let stats = Pipeline.stats pipe in
  Alcotest.(check bool) "mispredicted" true (stats.Sim_stats.mispredicts >= 1);
  Alcotest.(check bool) "wrong-path load executed" true
    (stats.Sim_stats.wrong_path_executed_loads >= 1);
  Alcotest.(check bool) "cache polluted by squashed load" true
    (Cache.Hierarchy.probe (Pipeline.hierarchy pipe) 2048 <> Cache.Hierarchy.Memory);
  (* architectural state is untouched by the wrong path *)
  Alcotest.(check int) "r4 never written" 0 (Pipeline.regs pipe).(4);
  Alcotest.(check int) "r3 written" 1 (Pipeline.regs pipe).(3)

let test_mispredict_recovery_rename () =
  (* After a squash the rename table must roll back: r1's final value comes
     from the correct path. *)
  let config = { small_config with Config.predictor = Config.Always_taken } in
  let program =
    Parser.parse_exn
      {|
        load r2, [r0 + #512]
        beq r2, #999, wrong
        add r1, r1, #5
        halt
      wrong:
        add r1, r1, #100
        add r1, r1, #100
        halt
      |}
  in
  let pipe = Pipeline.create config ~policy:unsafe program in
  Pipeline.run pipe;
  Alcotest.(check int) "correct-path r1" 5 (Pipeline.regs pipe).(1)

let test_rdcycle_measures_load_latency () =
  (* Timing a cold load vs a hot load through rdcycle must show at least the
     memory-vs-L1 latency difference: the flush+reload primitive works. *)
  let src =
    {|
      rdcycle r1, r0
      load r2, [r0 + #4096]   ; cold: memory latency
      rdcycle r3, r2
      load r4, [r0 + #4096]   ; hot: l1 latency
      rdcycle r5, r4
      sub r6, r3, r1          ; cold time
      sub r7, r5, r3          ; hot time
      halt
    |}
  in
  let pipe = run_pipe src in
  let regs = Pipeline.regs pipe in
  let cold = regs.(6) and hot = regs.(7) in
  Alcotest.(check bool)
    (Printf.sprintf "cold %d > hot %d + 40" cold hot)
    true
    (cold > hot + 40)

let test_flush_makes_reload_slow () =
  (* The reload's address must data-depend on the first timestamp or the
     out-of-order core hoists it before the flush. *)
  let src =
    {|
      load r2, [r0 + #4096]
      flush [r0 + #4096]
      rdcycle r1, r2
      and r6, r1, #0
      load r3, [r6 + #4096]
      rdcycle r4, r3
      sub r5, r4, r1
      halt
    |}
  in
  let pipe = run_pipe src in
  Alcotest.(check bool) "reload after flush is slow" true
    ((Pipeline.regs pipe).(5) >= small_config.Config.memory_latency)

let test_deadlock_detection () =
  let gate_everything _cfg _program _pipe =
    { Pipeline.always_execute_policy with
      policy_name = "gate-everything";
      may_execute = (fun ~seq:_ -> false)
    }
  in
  let program = Parser.parse_exn "add r1, r1, #1\nhalt" in
  let pipe = Pipeline.create small_config ~policy:gate_everything program in
  match Pipeline.run ~deadlock_window:2000 pipe with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Pipeline.Deadlock d ->
    (* the diagnostic must name the culprit: head instruction, what it
       is stalled on, which policy gated it, and the recent event tail *)
    Alcotest.(check int) "head seq" 0 d.Pipeline.dl_head_seq;
    Alcotest.(check int) "head pc" 0 d.Pipeline.dl_head_pc;
    Alcotest.(check string) "policy" "gate-everything" d.Pipeline.dl_policy;
    (match d.Pipeline.dl_head_cause with
    | Some Levioso_telemetry.Stall.Policy_gate -> ()
    | Some c ->
      Alcotest.failf "head cause %s, expected policy_gate"
        (Levioso_telemetry.Stall.cause_to_string c)
    | None -> Alcotest.fail "no head stall cause recorded");
    Alcotest.(check bool) "recent events captured" true
      (d.Pipeline.dl_recent_events <> []);
    Alcotest.(check bool) "deadlock window respected" true
      (d.Pipeline.dl_cycle - d.Pipeline.dl_last_commit_cycle >= 2000);
    let msg = Pipeline.deadlock_to_string d in
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "message names the cause" true
      (contains "policy_gate" msg);
    Alcotest.(check bool) "message names the policy" true
      (contains "gate-everything" msg)

let test_tiny_rob () =
  let config = { small_config with Config.rob_size = 4 } in
  ignore
    (check_matches_emulator ~config
       {|
          mov r1, #0
        head:
          bge r1, #20, out
          add r1, r1, #1
          jump head
        out:
          halt
        |})

let test_narrow_widths () =
  let config =
    { small_config with Config.fetch_width = 1; issue_width = 1; commit_width = 1 }
  in
  ignore
    (check_matches_emulator ~config
       {|
          mov r1, #3
          mul r2, r1, r1
          store [r0 + #8], r2
          load r3, [r0 + #8]
          halt
        |})

let test_stats_committed_counts () =
  let pipe = run_pipe {|
    mov r1, #1
    load r2, [r0 + #64]
    store [r0 + #64], r1
    halt
  |} in
  let stats = Pipeline.stats pipe in
  Alcotest.(check int) "committed" 4 stats.Sim_stats.committed;
  Alcotest.(check int) "loads" 1 stats.Sim_stats.committed_loads;
  Alcotest.(check int) "stores" 1 stats.Sim_stats.committed_stores

let test_rename_recovery_with_committed_producer () =
  (* After a squash the rename snapshot may resurrect a mapping to an
     already-committed producer; the next consumer must read the committed
     register-file value, not a recycled ROB slot. *)
  let config = { small_config with Config.predictor = Config.Always_taken } in
  let program =
    Parser.parse_exn
      {|
        mov r5, #42            ; commits long before the branch resolves
        load r1, [r0 + #512]   ; slow branch operand
        beq r1, #999, wrong    ; predicted taken, actually not taken
        add r6, r5, #1         ; correct path: must see 42
        halt
      wrong:
        add r5, r5, #100       ; wrong path overwrites r5 speculatively
        add r7, r5, #1
        halt
      |}
  in
  let pipe = Pipeline.create config ~policy:unsafe program in
  Pipeline.run pipe;
  Alcotest.(check int) "r6 from committed r5" 43 (Pipeline.regs pipe).(6);
  Alcotest.(check int) "r5 restored" 42 (Pipeline.regs pipe).(5);
  Alcotest.(check int) "wrong-path r7 never commits" 0 (Pipeline.regs pipe).(7)

let test_rob_full_stalls_fetch_without_deadlock () =
  (* a serial dependence chain longer than the window forces ROB-full fetch
     stalls; everything must still drain correctly *)
  let config = { small_config with Config.rob_size = 8 } in
  let b = Buffer.create 2048 in
  Buffer.add_string b "mov r1, #0
";
  for _ = 1 to 64 do
    Buffer.add_string b "load r1, [r1 + #512]
"
  done;
  Buffer.add_string b "halt
";
  ignore
    (check_matches_emulator ~config
       ~mem_init:(fun mem -> for i = 0 to 1023 do mem.(i + 512) <- 512 + ((i * 7) mod 64) done)
       (Buffer.contents b))

let test_nested_mispredicts_recover () =
  (* two data-dependent branches mispredict back to back *)
  let config = { small_config with Config.predictor = Config.Always_taken } in
  ignore
    (check_matches_emulator ~config
       ~mem_init:(fun mem ->
         mem.(600) <- 3;
         mem.(601) <- 7)
       {|
          load r1, [r0 + #600]
          load r2, [r0 + #601]
          beq r1, #99, a        ; not taken, predicted taken
          add r3, r3, #1
        a:
          beq r2, #98, b        ; not taken, predicted taken
          add r3, r3, #2
        b:
          store [r0 + #64], r3
          halt
        |})

let test_prefetch_cuts_misses_on_streams () =
  let b = Buffer.create 512 in
  (* sequential sweep: 64 loads across 8 lines *)
  Buffer.add_string b "mov r9, #0\n";
  for i = 0 to 63 do
    Buffer.add_string b (Printf.sprintf "load r%d, [r0 + #%d]\n" (1 + (i mod 8)) (1024 + i))
  done;
  Buffer.add_string b "halt\n";
  let src = Buffer.contents b in
  let misses prefetch =
    let config = { small_config with Config.next_line_prefetch = prefetch } in
    let pipe = run_pipe ~config src in
    List.assoc "l1_misses" (Cache.Hierarchy.stats (Pipeline.hierarchy pipe))
  in
  let off = misses false and on = misses true in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch on %d < off %d" on off)
    true (on < off)

let test_prefetch_preserves_architecture () =
  let config = { small_config with Config.next_line_prefetch = true } in
  ignore
    (check_matches_emulator ~config
       ~mem_init:(fun mem ->
         for i = 0 to 127 do
           mem.(2000 + i) <- i
         done)
       {|
          mov r1, #0
          mov r2, #0
        head:
          bge r1, #128, out
          load r3, [r1 + #2000]
          add r2, r2, r3
          add r1, r1, #1
          jump head
        out:
          store [r0 + #100], r2
          halt
        |})

let test_mshr_limit_binds () =
  (* 24 independent cold loads: with one MSHR they serialize; with many
     they overlap.  The single-MSHR run must be several times slower. *)
  let b = Buffer.create 512 in
  for i = 0 to 23 do
    Buffer.add_string b (Printf.sprintf "load r%d, [r0 + #%d]\n" (1 + (i mod 8)) (1024 + (i * 64)))
  done;
  Buffer.add_string b "halt\n";
  let src = Buffer.contents b in
  let run mshrs =
    let config = { small_config with Config.mshrs } in
    Pipeline.cycle (run_pipe ~config src)
  in
  let serial = run 1 and parallel = run 24 in
  Alcotest.(check bool)
    (Printf.sprintf "1 MSHR %d > 3x 24 MSHRs %d" serial parallel)
    true
    (serial > 3 * parallel)

let test_mshr_released_on_squash () =
  (* wrong-path misses must give their MSHRs back or the machine wedges *)
  let config =
    { small_config with Config.mshrs = 2; predictor = Config.Always_taken }
  in
  ignore
    (check_matches_emulator ~config
       ~mem_init:(fun mem ->
         for i = 0 to 63 do
           mem.(1000 + i) <- i * 13 mod 7
         done)
       {|
          mov r1, #0
          mov r2, #0
        head:
          bge r1, #32, out
          load r3, [r1 + #1000]
          beq r3, #2, rare
          add r2, r2, r3
          jump next
        rare:
          load r4, [r1 + #3000]
          add r2, r2, r4
        next:
          add r1, r1, #1
          jump head
        out:
          halt
        |})

let test_memory_disambiguation_blocks_bypass () =
  (* A load younger than a store to an unresolved (slow) address must not
     read stale memory: conservative LSQ waits.  The store address depends
     on a slow load; the subsequent load targets the same location. *)
  ignore
    (check_matches_emulator
       ~mem_init:(fun mem -> mem.(700) <- 300)
       {|
          load r1, [r0 + #700]    ; r1 = 300 (slow)
          store [r1 + #0], #42    ; store to 300
          load r2, [r0 + #300]    ; must see 42
          halt
        |})

(* The window is [rob_size], whatever the arena behind it: the arena
   rounds up to a power of two, and its spare slots must never hold an
   instruction.  Cycles and Rob_full charges for window sizes that are
   not powers of two, pinned from the core before the arena was rounded
   up (levioso, so the dependency masks see the spare slots too). *)
let test_non_power_of_two_window () =
  let pinned =
    [
      ("pchase", 5, 166337, 161321);
      ("pchase", 37, 38830, 33090);
      ("pchase", 130, 15400, 9155);
      ("stream", 5, 307565, 253921);
      ("stream", 37, 143371, 52502);
      ("stream", 130, 103491, 36);
      ("compact", 5, 143028, 107960);
      ("compact", 37, 75785, 16932);
      ("compact", 130, 66711, 2755);
    ]
  in
  List.iter
    (fun (name, rob, cycles, rob_full) ->
      let w = Levioso_workload.Suite.find_exn name in
      let config = { Config.default with Config.rob_size = rob } in
      let pipe =
        Pipeline.create ~mem_init:w.Levioso_workload.Workload.mem_init config
          ~policy:(Levioso_core.Levioso_policy.maker ())
          w.Levioso_workload.Workload.program
      in
      Pipeline.run pipe;
      let stats = Pipeline.stats pipe in
      let where = Printf.sprintf "%s rob=%d" name rob in
      Alcotest.(check int) (where ^ " cycles") cycles stats.Sim_stats.cycles;
      Alcotest.(check int)
        (where ^ " rob_full")
        rob_full
        (Levioso_telemetry.Stall.count
           (Pipeline.stall_attribution pipe)
           Levioso_telemetry.Stall.Rob_full);
      Alcotest.(check bool)
        (where ^ " occupancy within the window")
        true
        (stats.Sim_stats.max_rob_occupancy <= rob))
    pinned

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "straight line" `Quick test_straight_line;
      Alcotest.test_case "loop matches emulator" `Quick test_matches_emulator_loop;
      Alcotest.test_case "data-dependent branches" `Quick test_matches_emulator_data_dependent_branches;
      Alcotest.test_case "store-load forwarding" `Quick test_store_load_forwarding;
      Alcotest.test_case "ILP speedup" `Quick test_ilp_speedup;
      Alcotest.test_case "dependent chain serial" `Quick test_dependent_chain_is_serial;
      Alcotest.test_case "cache miss cost" `Quick test_cache_miss_costs_cycles;
      Alcotest.test_case "wrong-path cache pollution" `Quick test_wrong_path_load_pollutes_cache;
      Alcotest.test_case "mispredict recovery" `Quick test_mispredict_recovery_rename;
      Alcotest.test_case "rdcycle measures latency" `Quick test_rdcycle_measures_load_latency;
      Alcotest.test_case "flush slows reload" `Quick test_flush_makes_reload_slow;
      Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
      Alcotest.test_case "tiny rob" `Quick test_tiny_rob;
      Alcotest.test_case "narrow widths" `Quick test_narrow_widths;
      Alcotest.test_case "stats counts" `Quick test_stats_committed_counts;
      Alcotest.test_case "memory disambiguation" `Quick test_memory_disambiguation_blocks_bypass;
      Alcotest.test_case "rename recovery, committed producer" `Quick
        test_rename_recovery_with_committed_producer;
      Alcotest.test_case "rob-full fetch stalls" `Quick test_rob_full_stalls_fetch_without_deadlock;
      Alcotest.test_case "nested mispredicts" `Quick test_nested_mispredicts_recover;
      Alcotest.test_case "prefetch cuts misses" `Quick test_prefetch_cuts_misses_on_streams;
      Alcotest.test_case "prefetch preserves architecture" `Quick test_prefetch_preserves_architecture;
      Alcotest.test_case "mshr limit binds" `Quick test_mshr_limit_binds;
      Alcotest.test_case "mshr released on squash" `Quick test_mshr_released_on_squash;
      Alcotest.test_case "non-power-of-two window" `Quick test_non_power_of_two_window;
    ] )
