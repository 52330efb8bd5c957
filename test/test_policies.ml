module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Config = Levioso_uarch.Config
module Cache = Levioso_uarch.Cache
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Registry = Levioso_core.Registry
module Api = Levioso_core.Levioso_api

let config =
  { Config.default with Config.mem_words = 65536; predictor = Config.Always_taken }

let run ?(config = config) ?mem_init ~policy src =
  let program = Parser.parse_exn src in
  let pipe =
    Pipeline.create ?mem_init config ~policy:(Registry.find_exn policy) program
  in
  Pipeline.run pipe;
  pipe

(* A branchy, memory-heavy kernel exercising every policy path. *)
let kernel =
  {|
      mov r1, #0
      mov r2, #0
    head:
      bge r1, #40, out
      and r3, r1, #63
      load r4, [r3 + #1024]
      rem r5, r4, #3
      beq r5, #0, skip
      add r2, r2, r4
    skip:
      add r1, r1, #1
      jump head
    out:
      store [r0 + #500], r2
      halt
  |}

let kernel_mem mem =
  for i = 0 to 63 do
    mem.(1024 + i) <- (i * 17) mod 29
  done

let test_all_policies_match_emulator () =
  List.iter
    (fun policy ->
      match
        Api.check_against_emulator ~config ~mem_init:kernel_mem ~policy
          (Parser.parse_exn kernel)
      with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (policy ^ ": " ^ msg))
    Registry.names

let cycles ~policy =
  let pipe = run ~mem_init:kernel_mem ~policy kernel in
  (Pipeline.stats pipe).Sim_stats.cycles

let test_restrictiveness_ordering () =
  let unsafe = cycles ~policy:"unsafe" in
  let fence = cycles ~policy:"fence" in
  let delay = cycles ~policy:"delay" in
  let levioso = cycles ~policy:"levioso" in
  Alcotest.(check bool)
    (Printf.sprintf "fence %d >= delay %d" fence delay)
    true (fence >= delay);
  Alcotest.(check bool)
    (Printf.sprintf "delay %d >= levioso %d" delay levioso)
    true (delay >= levioso);
  Alcotest.(check bool)
    (Printf.sprintf "levioso %d >= unsafe %d" levioso unsafe)
    true (levioso >= unsafe)

(* Wrong-path gadget: the branch operand comes from a cache miss so the
   branch stays unresolved while the (always-taken) predictor drives fetch
   down the wrong path, which contains a load at a secret-derived address.
   The secret was loaded non-speculatively — STT's blind spot. *)
let wrong_path_gadget =
  {|
      load r8, [r0 + #600]     ; "secret", non-speculative
      mul r7, r8, #8
      load r9, [r0 + #512]     ; miss...
      load r9, [r9 + #768]     ; ...feeding a dependent miss: branch
                               ; resolution lags far behind the secret
      beq r9, #999, wrong      ; architecturally not taken, predicted taken
      mov r3, #1
      halt
    wrong:
      load r4, [r7 + #3000]    ; transmitter at secret-derived address
      halt
  |}

let gadget_mem mem = mem.(600) <- 5

let wrong_path_probe ~policy =
  let pipe = run ~mem_init:gadget_mem ~policy wrong_path_gadget in
  let stats = Pipeline.stats pipe in
  let secret_line =
    Cache.Hierarchy.probe (Pipeline.hierarchy pipe) (3000 + (5 * 8))
  in
  (stats, secret_line)

let test_unsafe_leaks_wrong_path () =
  let stats, line = wrong_path_probe ~policy:"unsafe" in
  Alcotest.(check bool) "executed" true (stats.Sim_stats.wrong_path_executed_loads >= 1);
  Alcotest.(check bool) "cache witness" true (line <> Cache.Hierarchy.Memory)

let test_stt_misses_non_speculative_secret () =
  (* The address derives from a bound (oldest-load) value, so STT lets the
     wrong-path transmitter run: the constant-time blind spot. *)
  let stats, line = wrong_path_probe ~policy:"stt" in
  Alcotest.(check bool) "executed under stt" true
    (stats.Sim_stats.wrong_path_executed_loads >= 1);
  Alcotest.(check bool) "cache witness" true (line <> Cache.Hierarchy.Memory)

let test_comprehensive_policies_block_wrong_path () =
  List.iter
    (fun policy ->
      let stats, line = wrong_path_probe ~policy in
      Alcotest.(check int)
        (policy ^ ": no wrong-path load executes")
        0 stats.Sim_stats.wrong_path_executed_loads;
      Alcotest.(check bool)
        (policy ^ ": no cache witness")
        true
        (line = Cache.Hierarchy.Memory))
    (Registry.stopping Registry.Register_in_region)

(* STT *does* block the classic sandbox gadget, where the transmitted value
   was itself loaded speculatively under the mispredicted branch. *)
let sandbox_gadget =
  {|
      load r9, [r0 + #512]     ; miss...
      load r9, [r9 + #768]     ; ...dependent miss: long window
      beq r9, #999, wrong      ; not taken, predicted taken
      mov r3, #1
      halt
    wrong:
      load r8, [r0 + #600]     ; speculative access of the secret
      mul r7, r8, #8
      load r4, [r7 + #3000]    ; transmit
      halt
  |}

let test_stt_blocks_speculative_secret () =
  let witness policy =
    let program = Parser.parse_exn sandbox_gadget in
    let pipe =
      Pipeline.create ~mem_init:gadget_mem config
        ~policy:(Registry.find_exn policy) program
    in
    Pipeline.run pipe;
    Cache.Hierarchy.probe (Pipeline.hierarchy pipe) (3000 + (5 * 8))
  in
  (* non-vacuity: the unsafe baseline does leak through this gadget *)
  Alcotest.(check bool) "unsafe leaks the sandbox gadget" true
    (witness "unsafe" <> Cache.Hierarchy.Memory);
  Alcotest.(check bool) "no cache witness under stt" true
    (witness "stt" = Cache.Hierarchy.Memory)

(* The Levioso win: a quickly-reconverging branch (empty region) whose
   resolution is slow must not delay the loads that follow it. *)
let reconverged_kernel =
  {|
      load r9, [r0 + #512]   ; miss: branch resolves ~memory-latency late
      bge r9, #0, next       ; taken (r9 = 0), predicted taken, region empty
    next:
      load r1, [r0 + #2048]
      load r2, [r0 + #2056]
      halt
  |}

let test_levioso_frees_reconverged_loads () =
  let lev = run ~policy:"levioso" reconverged_kernel in
  let del = run ~policy:"delay" reconverged_kernel in
  let lev_stall = (Pipeline.stats lev).Sim_stats.transmit_stall_cycles in
  let del_stall = (Pipeline.stats del).Sim_stats.transmit_stall_cycles in
  Alcotest.(check int) "levioso does not stall reconverged loads" 0 lev_stall;
  Alcotest.(check bool)
    (Printf.sprintf "delay stalls them (%d cycles)" del_stall)
    true (del_stall > 40);
  Alcotest.(check bool) "levioso finishes faster" true
    ((Pipeline.stats lev).Sim_stats.cycles < (Pipeline.stats del).Sim_stats.cycles)

(* Data-dependence propagation: a value produced under a branch is used by
   a load after the join; full Levioso must hold that load until the branch
   resolves, the control-only ablation must not. *)
let data_dep_kernel =
  {|
      load r9, [r0 + #512]    ; miss
      blt r9, #100, then_     ; taken (0 < 100), predicted taken
      mov r5, #2304
      jump join
    then_:
      mov r5, #2048
    join:
      load r6, [r5 + #0]      ; operand carries the branch dependence
      halt
  |}

let test_levioso_tracks_data_dependence () =
  let full = run ~policy:"levioso" data_dep_kernel in
  let ctrl = run ~policy:"levioso-ctrl" data_dep_kernel in
  Alcotest.(check bool) "full stalls the dependent load" true
    ((Pipeline.stats full).Sim_stats.transmit_stall_cycles > 0);
  Alcotest.(check int) "control-only does not" 0
    (Pipeline.stats ctrl).Sim_stats.transmit_stall_cycles

(* static hints match loop-branch *pcs*, so an unresolved instance from a
   previous iteration keeps gating transmitters the dynamic scheme already
   freed: dynamic instance tracking must stall strictly less here *)
let static_vs_dynamic_kernel =
  {|
      mov r1, #0
      mov r2, #0
    head:
      bge r1, #64, out
      load r3, [r1 + #512]    ; in the loop branch's region, L2-resident data
      add r2, r2, r3
      add r1, r1, #1
      jump head
    out:
      store [r0 + #100], r2
      halt
  |}

let test_static_hints_more_conservative_than_dynamic () =
  let stall policy =
    (Pipeline.stats (run ~policy static_vs_dynamic_kernel)).Sim_stats.transmit_stall_cycles
  in
  let dynamic = stall "levioso" and static_ = stall "levioso-static" in
  Alcotest.(check bool)
    (Printf.sprintf "static %d >= dynamic %d" static_ dynamic)
    true (static_ >= dynamic)

let test_depset_budget_overflow_safe () =
  (* With a budget of 1 the dependency sets overflow immediately; behaviour
     degrades toward delay but must stay correct. *)
  let tiny = { config with Config.depset_budget = 1 } in
  match
    Api.check_against_emulator ~config:tiny ~mem_init:kernel_mem
      ~policy:"levioso" (Parser.parse_exn kernel)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_fence_stalls_more_than_delay () =
  let fence = run ~mem_init:kernel_mem ~policy:"fence" kernel in
  let delay = run ~mem_init:kernel_mem ~policy:"delay" kernel in
  Alcotest.(check bool) "fence at least as slow" true
    ((Pipeline.stats fence).Sim_stats.cycles
    >= (Pipeline.stats delay).Sim_stats.cycles);
  Alcotest.(check bool) "fence stalls non-transmitters too" true
    ((Pipeline.stats fence).Sim_stats.policy_stall_cycles
    > (Pipeline.stats fence).Sim_stats.transmit_stall_cycles)

(* Delay-on-miss: a speculative load that hits in L1 executes (so it is
   cheap) but leaves no footprint (so it is safe); a speculative miss waits. *)
let test_dom_invisible_hits () =
  (* Warm a line, then access it on the wrong path of a slow branch: DoM
     lets it execute.  A cold line on the wrong path must stay cold. *)
  let src =
    {|
      load r1, [r0 + #2048]    ; warm the hit line
      load r9, [r0 + #512]     ; miss...
      load r9, [r9 + #768]     ; ...dependent miss: long window
      beq r9, #999, wrong      ; not taken, predicted taken
      mov r3, #1
      halt
    wrong:
      load r4, [r1 + #2048]    ; r1 = 0: hits (warmed) -> executes invisibly
      load r5, [r0 + #3000]    ; cold -> must be delayed
      halt
    |}
  in
  let pipe = run ~policy:"dom" src in
  let stats = Pipeline.stats pipe in
  Alcotest.(check bool) "speculative hit executed" true
    (stats.Sim_stats.wrong_path_executed_loads >= 1);
  Alcotest.(check bool) "cold line untouched" true
    (Cache.Hierarchy.probe (Pipeline.hierarchy pipe) 3000 = Cache.Hierarchy.Memory)

let test_dom_between_unsafe_and_delay () =
  let unsafe = cycles ~policy:"unsafe" in
  let dom = cycles ~policy:"dom" in
  let delay = cycles ~policy:"delay" in
  Alcotest.(check bool)
    (Printf.sprintf "unsafe %d <= dom %d <= delay %d" unsafe dom delay)
    true
    (unsafe <= dom && dom <= delay)

let test_registry_contents () =
  Alcotest.(check (list string))
    "names"
    [
      "unsafe"; "fence"; "delay"; "dom"; "stt"; "nda"; "levioso";
      "levioso-ctrl"; "levioso-static";
    ]
    Registry.names;
  Alcotest.(check bool) "unknown rejected" true
    (try
       let (_ : Pipeline.policy_maker) = Registry.find_exn "nope" in
       false
     with Invalid_argument _ -> true)

let suite =
  ( "policies",
    [
      Alcotest.test_case "all match emulator" `Quick test_all_policies_match_emulator;
      Alcotest.test_case "restrictiveness ordering" `Quick test_restrictiveness_ordering;
      Alcotest.test_case "unsafe leaks" `Quick test_unsafe_leaks_wrong_path;
      Alcotest.test_case "stt blind spot" `Quick test_stt_misses_non_speculative_secret;
      Alcotest.test_case "comprehensive block" `Quick test_comprehensive_policies_block_wrong_path;
      Alcotest.test_case "stt blocks sandbox gadget" `Quick test_stt_blocks_speculative_secret;
      Alcotest.test_case "levioso frees reconverged" `Quick test_levioso_frees_reconverged_loads;
      Alcotest.test_case "levioso data dependence" `Quick test_levioso_tracks_data_dependence;
      Alcotest.test_case "static vs dynamic hints" `Quick
        test_static_hints_more_conservative_than_dynamic;
      Alcotest.test_case "budget overflow safe" `Quick test_depset_budget_overflow_safe;
      Alcotest.test_case "fence vs delay stalls" `Quick test_fence_stalls_more_than_delay;
      Alcotest.test_case "dom invisible hits" `Quick test_dom_invisible_hits;
      Alcotest.test_case "dom between unsafe and delay" `Quick test_dom_between_unsafe_and_delay;
      Alcotest.test_case "registry" `Quick test_registry_contents;
    ] )
