(* Differential tests of the bitmask dependency trackers (Levioso, its
   control-only ablation, STT) against the list-based reference
   implementations in [Reference_policies].

   Two checks per program and configuration:
   - lockstep: both policies receive every hook of one pipeline, and
     every [may_execute] answer — and the [explain] reason of every
     refusal — must agree;
   - separate runs: each policy drives its own audited pipeline, and the
     statistics, the stall attribution and the recorded audit events
     must be identical.

   Window sizes mix powers of two with sizes that leave spare arena
   slots, and single-word with multi-word slot masks; the budgets cover
   constant overflow (1) through rare overflow (8). *)

module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Stall = Levioso_telemetry.Stall
module Audit = Levioso_telemetry.Audit
module Json = Levioso_telemetry.Json
module Gen = Levioso_fuzz.Gen
module Suite = Levioso_workload.Suite
module Workload = Levioso_workload.Workload

let rob_sizes = [ 4; 37; 48; 96; 130 ]
let budgets = [ 1; 2; 8 ]

(* (name, reference maker, library maker) *)
let pairs =
  [
    ( "levioso",
      Reference_policies.Levioso.maker (),
      Levioso_core.Levioso_policy.maker () );
    ( "levioso-ctrl",
      Reference_policies.Levioso.maker ~track_data:false (),
      Levioso_core.Levioso_policy.maker ~track_data:false () );
    ("stt", Reference_policies.Stt.maker, Levioso_secure.Stt.maker);
  ]

let reason_to_string r =
  Json.to_string
    (Audit.event_to_json
       {
         Audit.seq = 0;
         pc = 0;
         policy = "";
         reason = r;
         necessary = false;
         cycles = 0;
         end_cycle = 0;
         outcome = Audit.Issued;
       })

(* One policy forwarding every hook to both makers' policies; the
   library policy's answers drive the pipeline. *)
let lockstep ~where reference library cfg program pipe =
  let r = reference cfg program pipe and l = library cfg program pipe in
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.fail (where ^ ": " ^ s)) fmt in
  let may_execute ~seq =
    let a = r.Pipeline.may_execute ~seq and b = l.Pipeline.may_execute ~seq in
    if a <> b then
      fail "cycle %d seq %d: reference may_execute=%b, library %b"
        (Pipeline.cycle pipe) seq a b;
    if not b then begin
      let ea = r.Pipeline.explain ~seq and eb = l.Pipeline.explain ~seq in
      if ea <> eb then
        fail "cycle %d seq %d: reference explain %s, library %s"
          (Pipeline.cycle pipe) seq (reason_to_string ea) (reason_to_string eb)
    end;
    b
  in
  {
    l with
    Pipeline.on_decode =
      (fun ~seq ->
        r.Pipeline.on_decode ~seq;
        l.Pipeline.on_decode ~seq);
    on_resolve =
      (fun ~seq ->
        r.Pipeline.on_resolve ~seq;
        l.Pipeline.on_resolve ~seq);
    on_squash =
      (fun ~boundary ->
        r.Pipeline.on_squash ~boundary;
        l.Pipeline.on_squash ~boundary);
    on_commit =
      (fun ~seq ->
        r.Pipeline.on_commit ~seq;
        l.Pipeline.on_commit ~seq);
    may_execute;
  }

(* Run to completion, or for at most [max_cycles] when given. *)
let drive ?max_cycles pipe =
  match max_cycles with
  | None -> Pipeline.run pipe
  | Some n ->
    while (not (Pipeline.halted pipe)) && Pipeline.cycle pipe < n do
      Pipeline.step pipe
    done

let observe ?max_cycles cfg ~policy ~mem_init program =
  let audit = Audit.create ~capacity:1_000_000 () in
  let pipe = Pipeline.create ~mem_init ~audit cfg ~policy program in
  drive ?max_cycles pipe;
  ( Json.to_string (Sim_stats.to_json (Pipeline.stats pipe)),
    Json.to_string
      (Stall.to_json ~top_k:(Array.length program) (Pipeline.stall_attribution pipe)),
    List.map (fun e -> Json.to_string (Audit.event_to_json e)) (Audit.recent audit) )

let check_program ?max_cycles ?(separate = true) ~base ~label ~mem_init program =
  List.iter
    (fun rob ->
      List.iter
        (fun budget ->
          let cfg = { base with Config.rob_size = rob; depset_budget = budget } in
          List.iter
            (fun (name, reference, library) ->
              let where = Printf.sprintf "%s %s rob=%d K=%d" label name rob budget in
              let pipe =
                Pipeline.create ~mem_init cfg
                  ~policy:(lockstep ~where reference library)
                  program
              in
              drive ?max_cycles pipe;
              if separate then begin
                let rs, rst, ra =
                  observe ?max_cycles cfg ~policy:reference ~mem_init program
                in
                let ls, lst, la =
                  observe ?max_cycles cfg ~policy:library ~mem_init program
                in
                Alcotest.(check string) (where ^ " stats") rs ls;
                Alcotest.(check string) (where ^ " stall attribution") rst lst;
                Alcotest.(check (list string)) (where ^ " audit events") ra la
              end)
            pairs)
        budgets)
    rob_sizes

let test_fuzz_programs () =
  for seed = 1 to 8 do
    check_program ~base:Gen.default_config
      ~label:(Printf.sprintf "fuzz seed %d" seed)
      ~mem_init:(Gen.mem_init seed) (Gen.random_program seed)
  done

(* The --quick kernels, capped so the full configuration product stays
   cheap; the cap sits well past warm-up, with the window full and
   branches resolving late.  Lockstep only: agreement on every query
   already makes the two policies' runs identical, and each kernel
   pipeline carries a full-size memory image. *)
let test_quick_kernels () =
  List.iteri
    (fun i (w : Workload.t) ->
      if i mod 2 = 0 then
        check_program ~max_cycles:6_000 ~separate:false ~base:Config.default
          ~label:w.Workload.name
          ~mem_init:w.Workload.mem_init w.Workload.program)
    Suite.all

let suite =
  ( "differential",
    [
      Alcotest.test_case "fuzz programs vs reference trackers" `Quick
        test_fuzz_programs;
      Alcotest.test_case "quick kernels vs reference trackers" `Quick
        test_quick_kernels;
    ] )
