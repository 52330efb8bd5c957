module Emulator = Levioso_ir.Emulator
module Stall = Levioso_telemetry.Stall
module Json = Levioso_telemetry.Json

type spec = { interval : int; warmup : int; period : int }

let default_period = 10

let spec_to_string s =
  Printf.sprintf "%d:%d:%d" s.interval s.warmup s.period

let parse str =
  if str = "off" then Ok None
  else begin
    let fail () =
      Error
        (Printf.sprintf
           "bad sample spec %S: expected \"off\" or N:W[:P] with interval N \
            > 0, warmup W >= 0, period P >= 1"
           str)
    in
    match String.split_on_char ':' str with
    | ([ _; _ ] | [ _; _; _ ]) as parts -> (
      match List.map int_of_string_opt parts with
      | [ Some n; Some w ] when n > 0 && w >= 0 ->
        Ok (Some { interval = n; warmup = w; period = default_period })
      | [ Some n; Some w; Some p ] when n > 0 && w >= 0 && p >= 1 ->
        Ok (Some { interval = n; warmup = w; period = p })
      | _ -> fail ())
    | _ -> fail ()
  end

type result = {
  estimated_cycles : int;
  error_pct : float;
      (** 95% confidence half-width of the per-interval CPI, as a
          percentage of the mean; 0 with fewer than two intervals *)
  intervals : int;
  measured_instrs : int;
  detailed_instrs : int;
  total_instrs : int;
  stats : Sim_stats.t;
  stall : Stall.t;
  hierarchy : Cache.Hierarchy.h;
  spec : spec;
}

(* Functional update on an all-mutable record is still a copy. *)
let stats_copy (s : Sim_stats.t) = { s with Sim_stats.cycles = s.Sim_stats.cycles }

(* a - b, fieldwise; the wrong-path pair list is not meaningfully
   subtractable and comes back empty (its count is). *)
let stats_delta (a : Sim_stats.t) (b : Sim_stats.t) =
  {
    Sim_stats.cycles = a.Sim_stats.cycles - b.Sim_stats.cycles;
    committed = a.committed - b.committed;
    committed_loads = a.committed_loads - b.committed_loads;
    committed_stores = a.committed_stores - b.committed_stores;
    committed_branches = a.committed_branches - b.committed_branches;
    committed_transmitters = a.committed_transmitters - b.committed_transmitters;
    fetched = a.fetched - b.fetched;
    squashed = a.squashed - b.squashed;
    mispredicts = a.mispredicts - b.mispredicts;
    policy_stall_cycles = a.policy_stall_cycles - b.policy_stall_cycles;
    transmit_stall_cycles = a.transmit_stall_cycles - b.transmit_stall_cycles;
    restricted_committed = a.restricted_committed - b.restricted_committed;
    restricted_transmitters =
      a.restricted_transmitters - b.restricted_transmitters;
    wrong_path_executed_loads =
      a.wrong_path_executed_loads - b.wrong_path_executed_loads;
    wrong_path_transmits = [];
    wrong_path_transmit_count =
      a.wrong_path_transmit_count - b.wrong_path_transmit_count;
    wrong_path_transmits_dropped =
      a.wrong_path_transmits_dropped - b.wrong_path_transmits_dropped;
    max_rob_occupancy = a.max_rob_occupancy;
  }

(* Functional warming: mirror exactly the microarchitectural state
   mutations the detailed pipeline performs on the committed path — cache
   fills on loads (plus the next-line prefetcher), write-allocate at
   stores, flushes, and predictor training.  (Wrong-path pollution is the
   one thing warming cannot reproduce; that is what the detailed warmup
   interval is for.) *)
let warming_hooks cfg hierarchy predictor =
  let line_words = cfg.Config.l1.Config.line_words in
  let mem_mask = cfg.Config.mem_words - 1 in
  let nlp = cfg.Config.next_line_prefetch in
  {
    Emulator.h_load =
      (fun addr ->
        let level = Cache.Hierarchy.load_level hierarchy addr in
        if nlp && level <> Cache.Hierarchy.L1 then
          Cache.Hierarchy.prefetch hierarchy ((addr + line_words) land mem_mask));
    h_store = (fun addr -> Cache.Hierarchy.store_commit hierarchy addr);
    h_flush = (fun addr -> Cache.Hierarchy.flush hierarchy addr);
    (* The committed-path history discipline, in one call: train the
       entry at the pre-branch history, shift in the real direction. *)
    h_branch = (fun ~pc ~taken -> Predictor.train predictor ~pc ~taken);
  }

(* One memory image per domain, reused by every run in it.  A run takes
   the image out of the slot and puts it back when it finishes, so a
   nested run, or the run after one that raised, finds the slot empty
   and allocates its own. *)
let image_slot : int array option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let take_image words =
  match Domain.DLS.get image_slot with
  | Some m when Array.length m = words ->
    Domain.DLS.set image_slot None;
    Array.fill m 0 words 0;
    m
  | Some _ | None -> Array.make words 0

let run ?(mem_init = fun (_ : int array) -> ()) ?(fuel = 1_000_000_000)
    spec cfg ~policy program =
  let hierarchy = Cache.Hierarchy.create cfg in
  let predictor = Predictor.create cfg in
  let memory = take_image cfg.Config.mem_words in
  mem_init memory;
  let emu = Emulator.create ~memory program in
  let hooks = warming_hooks cfg hierarchy predictor in
  let num_pcs = Array.length program in
  let pooled = Sim_stats.create () in
  let stall = Stall.create ~num_pcs in
  (* per measured interval, newest first *)
  let samples = ref [] in
  let detailed_instrs = ref 0 in
  let detailed_cycles = ref 0 in
  let period_instrs = spec.period * spec.interval in
  (* One interval pipeline per run, restarted at each later interval. *)
  let pipe = ref None in
  while not emu.Emulator.halted do
    if emu.Emulator.retired > fuel then raise Emulator.Out_of_fuel;
    (* Detailed interval at the head of each period: adopt the warmed
       memory/cache/predictor in place, warm the pipeline structures for
       [warmup] instructions (discarded), measure [interval]
       instructions, then hand the architectural state back. *)
    let pipe =
      match !pipe with
      | Some p ->
        Pipeline.restart p ~regs:emu.Emulator.regs ~pc:emu.Emulator.pc;
        p
      | None ->
        let p = Pipeline.create ~memory ~hierarchy ~predictor cfg ~policy program in
        Pipeline.warm_start p ~regs:emu.Emulator.regs ~pc:emu.Emulator.pc;
        pipe := Some p;
        p
    in
    let st = Pipeline.stats pipe in
    if spec.warmup > 0 then Pipeline.run_until_committed pipe spec.warmup;
    let before = stats_copy st in
    Pipeline.run_until_committed pipe
      (before.Sim_stats.committed + spec.interval);
    let d = stats_delta st before in
    (* Pool stats and stall attribution over the same span — the whole
       detailed portion, warmup included — so the summary's stall
       breakdown keeps its sum/policy_gate invariants against the stats
       counters.  The CPI estimate below still uses only the measured
       deltas. *)
    Sim_stats.accumulate pooled st;
    Stall.accumulate stall (Pipeline.stall_attribution pipe);
    if d.Sim_stats.committed > 0 then
      samples := (d.Sim_stats.cycles, d.Sim_stats.committed) :: !samples;
    detailed_instrs := !detailed_instrs + st.Sim_stats.committed;
    detailed_cycles := !detailed_cycles + st.Sim_stats.cycles;
    (* Architectural handoff: committed registers, next-to-commit PC.
       In-flight (uncommitted) work is discarded; the fast tier re-runs
       it architecturally. *)
    emu.Emulator.retired <- emu.Emulator.retired + st.Sim_stats.committed;
    if Pipeline.halted pipe then emu.Emulator.halted <- true
    else begin
      Array.blit (Pipeline.regs pipe) 0 emu.Emulator.regs 0
        (Array.length emu.Emulator.regs);
      emu.Emulator.pc <- Pipeline.arch_pc pipe;
      (* Fast-forward the rest of the period with functional warming. *)
      let skip = period_instrs - st.Sim_stats.committed in
      if skip > 0 then ignore (Emulator.run_steps ~hooks emu skip : int)
    end
  done;
  Domain.DLS.set image_slot (Some memory);
  let total_instrs = emu.Emulator.retired in
  let samples = List.rev !samples in
  let m_cycles = List.fold_left (fun acc (c, _) -> acc + c) 0 samples in
  let m_instrs = List.fold_left (fun acc (_, n) -> acc + n) 0 samples in
  (* Instruction-weighted CPI over the measured portions; when the
     program was too short to outlive any warmup, fall back to the full
     detailed portion (which then covers the whole run). *)
  let num, den =
    if m_instrs > 0 then (m_cycles, m_instrs)
    else (!detailed_cycles, !detailed_instrs)
  in
  let cpi = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let estimated_cycles =
    int_of_float (Float.round (cpi *. float_of_int total_instrs))
  in
  let error_pct =
    let k = List.length samples in
    if k < 2 then 0.0
    else begin
      let cpis =
        List.map (fun (c, n) -> float_of_int c /. float_of_int n) samples
      in
      let fk = float_of_int k in
      let mean = List.fold_left ( +. ) 0.0 cpis /. fk in
      if mean <= 0.0 then 0.0
      else begin
        let var =
          List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 cpis
          /. (fk -. 1.0)
        in
        1.96 *. sqrt var /. sqrt fk /. mean *. 100.0
      end
    end
  in
  {
    estimated_cycles;
    error_pct;
    intervals = List.length samples;
    measured_instrs = m_instrs;
    detailed_instrs = !detailed_instrs;
    total_instrs;
    stats = pooled;
    stall;
    hierarchy;
    spec;
  }

let to_json r =
  let detail_fraction =
    if r.total_instrs = 0 then 0.0
    else float_of_int r.detailed_instrs /. float_of_int r.total_instrs
  in
  Json.Obj
    [
      ("estimated_cycles", Json.Int r.estimated_cycles);
      ("error_pct", Json.Float r.error_pct);
      ("intervals", Json.Int r.intervals);
      ("measured_instrs", Json.Int r.measured_instrs);
      ("detailed_instrs", Json.Int r.detailed_instrs);
      ("total_instrs", Json.Int r.total_instrs);
      ("detail_fraction", Json.Float detail_fraction);
      ("interval", Json.Int r.spec.interval);
      ("warmup", Json.Int r.spec.warmup);
      ("period", Json.Int r.spec.period);
    ]
