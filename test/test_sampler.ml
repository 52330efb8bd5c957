(* The two-tier engine: emulator batch stepping (decode-once fast path),
   checkpoint fidelity, and the sampled cycle estimate's accuracy. *)

module Emulator = Levioso_ir.Emulator
module Parser = Levioso_ir.Parser
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Cache = Levioso_uarch.Cache
module Predictor = Levioso_uarch.Predictor
module Sampler = Levioso_uarch.Sampler
module Checkpoint = Levioso_uarch.Checkpoint
module Registry = Levioso_core.Registry
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Gen = Levioso_fuzz.Gen

(* --- spec parsing ---------------------------------------------------- *)

let test_parse_spec () =
  (match Sampler.parse "off" with
  | Ok None -> ()
  | _ -> Alcotest.fail "\"off\" must parse to no sampling");
  (match Sampler.parse "5000:2000" with
  | Ok (Some s) ->
    Alcotest.(check int) "interval" 5000 s.Sampler.interval;
    Alcotest.(check int) "warmup" 2000 s.Sampler.warmup;
    Alcotest.(check int) "default period" Sampler.default_period
      s.Sampler.period
  | _ -> Alcotest.fail "N:W must parse");
  (match Sampler.parse "5000:2000:20" with
  | Ok (Some s) ->
    Alcotest.(check int) "explicit period" 20 s.Sampler.period;
    Alcotest.(check string) "round trip" "5000:2000:20"
      (Sampler.spec_to_string s)
  | _ -> Alcotest.fail "N:W:P must parse");
  List.iter
    (fun bad ->
      match Sampler.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" bad)
    [ ""; "1"; "0:1"; "1:-1"; "1:1:0"; "x:y"; "1:2:3:4" ]

(* --- emulator fast path ---------------------------------------------- *)

(* Batch stepping must be observationally identical to the one-at-a-time
   stepper at every chunk boundary, not just at the end. *)
let prop_run_steps_matches_step =
  QCheck.Test.make ~count:60 ~name:"run_steps matches the single-stepper"
    QCheck.small_nat
    (fun seed ->
      let program = Gen.random_program seed in
      let make () =
        let memory = Array.make 4096 0 in
        Gen.mem_init seed memory;
        Emulator.create ~memory program
      in
      let a = make () and b = make () in
      let fuel = ref 200_000 in
      let agree () =
        a.Emulator.pc = b.Emulator.pc
        && a.Emulator.retired = b.Emulator.retired
        && a.Emulator.halted = b.Emulator.halted
        && a.Emulator.regs = b.Emulator.regs
        && a.Emulator.mem = b.Emulator.mem
      in
      let ok = ref true in
      while
        !ok && !fuel > 0 && not (a.Emulator.halted && b.Emulator.halted)
      do
        for _ = 1 to 7 do
          Emulator.step a
        done;
        ignore (Emulator.run_steps b 7 : int);
        fuel := !fuel - 7;
        if not (agree ()) then ok := false
      done;
      if not !ok then
        QCheck.Test.fail_reportf
          "seed %d: batch stepping diverged at retired=%d (step pc=%d, \
           run_steps pc=%d)"
          seed a.Emulator.retired a.Emulator.pc b.Emulator.pc
      else if !fuel <= 0 then
        QCheck.Test.fail_reportf "seed %d: did not terminate" seed
      else true)

let test_run_steps_hooks () =
  let p =
    Parser.parse_exn
      {|
        store [r0 + #8], #3
        load r1, [r0 + #8]
        flush [r0 + #8]
        blt r1, #10, skip
        add r2, r2, #1
      skip:
        load r3, [r0 + #16]
        halt
      |}
  in
  let loads = ref [] and stores = ref [] and flushes = ref [] in
  let branches = ref [] in
  let hooks =
    {
      Emulator.h_load = (fun a -> loads := a :: !loads);
      h_store = (fun a -> stores := a :: !stores);
      h_flush = (fun a -> flushes := a :: !flushes);
      h_branch = (fun ~pc ~taken -> branches := (pc, taken) :: !branches);
    }
  in
  let emu = Emulator.create p in
  ignore (Emulator.run_steps ~hooks emu max_int : int);
  Alcotest.(check (list int)) "loads observed" [ 8; 16 ] (List.rev !loads);
  Alcotest.(check (list int)) "store observed" [ 8 ] !stores;
  Alcotest.(check (list int)) "flush observed" [ 8 ] !flushes;
  Alcotest.(check (list (pair int bool)))
    "branch observed with direction" [ (3, true) ] !branches;
  Alcotest.(check int) "taken branch skipped the add" 0 emu.Emulator.regs.(2)

(* The whole point of the decode-once fast path: once the flat decode
   exists, batch stepping allocates nothing per step.  The budget covers
   the Gc.minor_words probe itself, not the 50k steps. *)
let test_run_steps_zero_alloc () =
  let w = Suite.find_exn "stream" in
  let memory = Array.make Config.default.Config.mem_words 0 in
  w.Workload.mem_init memory;
  let emu = Emulator.create ~memory w.Workload.program in
  ignore (Emulator.run_steps emu 1_000 : int);
  let w0 = Gc.minor_words () in
  ignore (Emulator.run_steps emu 50_000 : int);
  let dw = Gc.minor_words () -. w0 in
  if dw >= 512.0 then
    Alcotest.failf "run_steps allocated %.0f minor words over 50k steps" dw

(* --- checkpoint fidelity --------------------------------------------- *)

(* Fast-forward a random program to its midpoint with functional warming,
   checkpoint, then resume the detailed pipeline to completion — twice,
   independently.  The two resumes must be bit-identical (a resume must
   not corrupt the checkpoint), the final architectural state must match
   the emulator oracle, and retired accounting must close:
   fast-forwarded + committed-on-resume = oracle retired. *)
let prop_checkpoint_fidelity policy =
  QCheck.Test.make ~count:12
    ~name:(Printf.sprintf "checkpoint fidelity under %s" policy)
    QCheck.small_nat
    (fun seed ->
      let cfg = Gen.default_config in
      let mem_words = cfg.Config.mem_words in
      let program = Gen.random_program seed in
      let oracle =
        Emulator.run_program ~mem_words
          ~init:(fun st -> Gen.mem_init seed st.Emulator.mem)
          program
      in
      let memory = Array.make mem_words 0 in
      Gen.mem_init seed memory;
      let emu = Emulator.create ~memory program in
      let hierarchy = Cache.Hierarchy.create cfg in
      let predictor = Predictor.create cfg in
      let hooks = Sampler.warming_hooks cfg hierarchy predictor in
      let k = oracle.Emulator.retired / 2 in
      let executed = Emulator.run_steps ~hooks emu k in
      if executed <> k then
        QCheck.Test.fail_reportf "seed %d: fast tier halted after %d < %d"
          seed executed k
      else begin
        let ck = Checkpoint.capture emu ~hierarchy ~predictor in
        let resume () =
          let pipe =
            Checkpoint.to_pipeline ck cfg ~policy:(Registry.find_exn policy)
              program
          in
          Pipeline.run pipe;
          ( Pipeline.stats pipe,
            Array.copy (Pipeline.regs pipe),
            Array.copy (Pipeline.mem pipe) )
        in
        let s1, r1, m1 = resume () in
        let s2, r2, m2 = resume () in
        if not (s1 = s2 && r1 = r2 && m1 = m2) then
          QCheck.Test.fail_reportf
            "seed %d: two resumes from one checkpoint diverged" seed
        else if r1 <> oracle.Emulator.regs then
          QCheck.Test.fail_reportf
            "seed %d: resumed registers differ from the oracle" seed
        else if m1 <> oracle.Emulator.mem then
          QCheck.Test.fail_reportf
            "seed %d: resumed memory differs from the oracle" seed
        else if k + s1.Sim_stats.committed <> oracle.Emulator.retired then
          QCheck.Test.fail_reportf
            "seed %d: retired accounting %d fast + %d detailed <> %d oracle"
            seed k s1.Sim_stats.committed oracle.Emulator.retired
        else true
      end)

(* Rolling an emulator back to a checkpoint must reproduce the exact
   forward state, even after the live machine ran on. *)
let test_restore_emulator_rolls_back () =
  let seed = 7 in
  let program = Gen.random_program seed in
  let memory = Array.make 4096 0 in
  Gen.mem_init seed memory;
  let emu = Emulator.create ~memory program in
  let cfg = Gen.default_config in
  let hierarchy = Cache.Hierarchy.create cfg in
  let predictor = Predictor.create cfg in
  ignore (Emulator.run_steps emu 50 : int);
  let ck = Checkpoint.capture emu ~hierarchy ~predictor in
  let mark =
    (emu.Emulator.pc, emu.Emulator.retired, Array.copy emu.Emulator.regs,
     Array.copy emu.Emulator.mem)
  in
  Emulator.run emu;
  Checkpoint.restore_emulator ck emu;
  let pc, retired, regs, mem = mark in
  Alcotest.(check int) "pc restored" pc emu.Emulator.pc;
  Alcotest.(check int) "retired restored" retired emu.Emulator.retired;
  Alcotest.(check bool) "regs restored" true (regs = emu.Emulator.regs);
  Alcotest.(check bool) "memory restored" true (mem = emu.Emulator.mem)

(* --- sampled estimate accuracy --------------------------------------- *)

let check_sampled_error ~workload ~policy ~spec bound =
  let w = Suite.find_exn workload in
  let full =
    let pipe =
      Pipeline.create ~mem_init:w.Workload.mem_init Config.default
        ~policy:(Registry.find_exn policy) w.Workload.program
    in
    Pipeline.run pipe;
    (Pipeline.stats pipe).Sim_stats.cycles
  in
  let sp =
    match Sampler.parse spec with
    | Ok (Some s) -> s
    | _ -> Alcotest.failf "bad spec %s" spec
  in
  let r =
    Sampler.run ~mem_init:w.Workload.mem_init sp Config.default
      ~policy:(Registry.find_exn policy) w.Workload.program
  in
  let err =
    100.0
    *. float_of_int (r.Sampler.estimated_cycles - full)
    /. float_of_int full
  in
  if Float.abs err > bound then
    Alcotest.failf "%s/%s @ %s: sampled %d vs full %d = %.2f%% (> %.1f%%)"
      workload policy spec r.Sampler.estimated_cycles full err bound

let test_sampled_error_bound () =
  (* Specs matched to working-set size: the short compact kernel needs
     denser sampling for the same confidence. *)
  List.iter
    (fun (workload, spec) ->
      List.iter
        (fun policy -> check_sampled_error ~workload ~policy ~spec 2.0)
        [ "unsafe"; "levioso" ])
    [ ("stream", "2000:2000:10"); ("compact", "1000:1000:5") ]

(* --- restart and the per-domain image --------------------------------- *)

module Stall = Levioso_telemetry.Stall
module Json = Levioso_telemetry.Json
module Parallel = Levioso_util.Parallel

let cache_line h =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Cache.Hierarchy.stats h))

(* The fast tier, functionally warmed, stopped mid-run. *)
let mid_run_checkpoint workload ~retired =
  let cfg = Config.default in
  let w = Suite.find_exn workload in
  let memory = Array.make cfg.Config.mem_words 0 in
  w.Workload.mem_init memory;
  let emu = Emulator.create ~memory w.Workload.program in
  let hierarchy = Cache.Hierarchy.create cfg in
  let predictor = Predictor.create cfg in
  let hooks = Sampler.warming_hooks cfg hierarchy predictor in
  ignore (Emulator.run_steps ~hooks emu retired : int);
  (w.Workload.program, Checkpoint.capture emu ~hierarchy ~predictor)

(* Stats, stall table, registers, memory and the run's cache-counter
   deltas after [n] more commits. *)
let observe_commits program pipe n =
  let before = Cache.Hierarchy.stats (Pipeline.hierarchy pipe) in
  Pipeline.run_until_committed pipe n;
  let after = Cache.Hierarchy.stats (Pipeline.hierarchy pipe) in
  ( Pipeline.stats pipe,
    Json.to_string ~minify:true
      (Stall.to_json ~top_k:(Array.length program) (Pipeline.stall_attribution pipe)),
    Array.copy (Pipeline.regs pipe),
    Array.copy (Pipeline.mem pipe),
    List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before )

(* A pipeline that already ran — window half full, queues and wake rows
   dirty — restarted from a checkpoint must behave exactly like a fresh
   [create] + [warm_start] from it. *)
let test_restart_matches_create () =
  let n = 3000 in
  List.iter
    (fun workload ->
      let program, ck = mid_run_checkpoint workload ~retired:20_000 in
      List.iter
        (fun policy ->
          let maker = Registry.find_exn policy in
          let makes = ref 0 in
          let counted cfg prog pipe =
            incr makes;
            maker cfg prog pipe
          in
          let fresh =
            observe_commits program
              (Checkpoint.to_pipeline ck Config.default ~policy:maker program)
              n
          in
          let pipe =
            Checkpoint.to_pipeline ck Config.default ~policy:counted program
          in
          Pipeline.run_until_committed pipe 1234;
          (* back to the checkpoint's memory, caches and predictor, in place *)
          let emu = Emulator.create ~memory:(Pipeline.mem pipe) program in
          Checkpoint.restore_emulator ck emu;
          Checkpoint.restore_uarch ck ~hierarchy:(Pipeline.hierarchy pipe)
            ~predictor:(Pipeline.predictor pipe);
          Pipeline.restart pipe ~regs:emu.Emulator.regs ~pc:emu.Emulator.pc;
          let restarted = observe_commits program pipe n in
          let label = Printf.sprintf "%s/%s" workload policy in
          let s1, t1, r1, m1, c1 = fresh and s2, t2, r2, m2, c2 = restarted in
          Alcotest.(check bool) (label ^ " stats") true (s1 = s2);
          Alcotest.(check string) (label ^ " stall table") t1 t2;
          Alcotest.(check bool) (label ^ " registers") true (r1 = r2);
          Alcotest.(check bool) (label ^ " memory") true (m1 = m2);
          Alcotest.(check (list (pair string int))) (label ^ " cache counters") c1 c2;
          Alcotest.(check int) (label ^ " one maker call per start") 2 !makes)
        Registry.names)
    [ "stream"; "compact" ]

let test_restart_rejects_bad_start () =
  let w = Suite.find_exn "stream" in
  let pipe =
    Pipeline.create Config.default ~policy:(Registry.find_exn "unsafe")
      w.Workload.program
  in
  let regs = Array.make Levioso_ir.Ir.num_regs 0 in
  Alcotest.check_raises "pc"
    (Invalid_argument "Pipeline.restart: pc -1 out of range") (fun () ->
      Pipeline.restart pipe ~regs ~pc:(-1));
  Alcotest.check_raises "regs"
    (Invalid_argument "Pipeline.restart: bad register file size") (fun () ->
      Pipeline.restart pipe ~regs:[| 0 |] ~pc:0)

(* Estimate, stall digest and cache counters of one sampled cell;
   [before] runs inside its [mem_init]. *)
let sampled_line ?(before = ignore) (workload, policy) =
  let w = Suite.find_exn workload in
  let sp = { Sampler.interval = 1000; warmup = 500; period = 4 } in
  let r =
    Sampler.run
      ~mem_init:(fun m ->
        before ();
        w.Workload.mem_init m)
      sp Config.default
      ~policy:(Registry.find_exn policy) w.Workload.program
  in
  Printf.sprintf "%s/%s %d %s %s" workload policy r.Sampler.estimated_cycles
    (Digest.to_hex
       (Digest.string
          (Json.to_string ~minify:true
             (Stall.to_json ~top_k:(Array.length w.Workload.program) r.Sampler.stall))))
    (cache_line r.Sampler.hierarchy)

let reuse_cells =
  [ ("compact", "levioso"); ("stream", "delay"); ("compact", "levioso") ]

(* Runs that follow one another in a domain reuse its memory image; none
   may see what the one before left in it. *)
let test_image_reuse () =
  let first = sampled_line (List.hd reuse_cells) in
  let serial = List.map sampled_line reuse_cells in
  Alcotest.(check string) "first cell again, same domain" first (List.nth serial 2);
  let pool = Parallel.create ~size:2 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () -> Parallel.map pool sampled_line (reuse_cells @ reuse_cells))
  in
  Alcotest.(check (list string)) "2-domain pool" (serial @ serial) parallel

(* A loop whose trip count is a word the program never writes: a run
   retires 3 + 2 * (10 + mem[100]) instructions, 23 on a zeroed image. *)
let reads_unwritten_word =
  Parser.parse_exn
    {|
      load r1, [r0 + #100]
      add r2, r1, #10
    loop:
      sub r2, r2, #1
      bne r2, #0, loop
      halt
    |}

(* Whatever the previous run in the domain left in the image, the next
   one starts from zeros. *)
let test_image_zeroed () =
  let sp = { Sampler.interval = 5; warmup = 0; period = 2 } in
  let total mem_init =
    (Sampler.run ~mem_init sp Config.default ~policy:(Registry.find_exn "unsafe")
       reads_unwritten_word)
      .Sampler.total_instrs
  in
  Alcotest.(check int) "first run" 23 (total ignore);
  Alcotest.(check int) "dirtying run" 37
    (total (fun m -> Array.fill m 0 (Array.length m) 7));
  Alcotest.(check int) "after it" 23 (total ignore)

(* A run that raises leaves the slot empty and a nested run finds it
   empty: both just allocate, and the runs after them are unchanged. *)
let test_image_failed_and_nested () =
  let cell = List.hd reuse_cells in
  let expected = sampled_line cell in
  let w = Suite.find_exn "stream" in
  Alcotest.check_raises "out of fuel" Emulator.Out_of_fuel (fun () ->
      ignore
        (Sampler.run ~fuel:10 ~mem_init:w.Workload.mem_init
           { Sampler.interval = 100; warmup = 0; period = 2 }
           Config.default ~policy:(Registry.find_exn "unsafe") w.Workload.program
          : Sampler.result));
  Alcotest.(check string) "after a failed run" expected (sampled_line cell);
  let inner = ref "" in
  let outer = sampled_line ~before:(fun () -> inner := sampled_line cell) cell in
  Alcotest.(check string) "nested run" expected !inner;
  Alcotest.(check string) "run around it" expected outer;
  Alcotest.(check string) "after a nested run" expected (sampled_line cell)

let suite =
  ( "sampler",
    [
      Alcotest.test_case "sample spec parsing" `Quick test_parse_spec;
      Alcotest.test_case "run_steps hooks" `Quick test_run_steps_hooks;
      Alcotest.test_case "run_steps zero alloc" `Quick
        test_run_steps_zero_alloc;
      Alcotest.test_case "restore_emulator rolls back" `Quick
        test_restore_emulator_rolls_back;
      Alcotest.test_case "sampled error bound" `Slow test_sampled_error_bound;
      Alcotest.test_case "restart = create + warm_start (9 policies x 2)" `Quick
        test_restart_matches_create;
      Alcotest.test_case "restart rejects a bad start" `Quick
        test_restart_rejects_bad_start;
      Alcotest.test_case "image reuse: 1 domain and a 2-domain pool" `Quick
        test_image_reuse;
      Alcotest.test_case "image zeroed for every run" `Quick test_image_zeroed;
      Alcotest.test_case "image reuse after a failed and a nested run" `Quick
        test_image_failed_and_nested;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        (prop_run_steps_matches_step
        :: List.map prop_checkpoint_fidelity Registry.names) )
