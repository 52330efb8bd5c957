(* The repository benchmark.  One process runs one workload under one
   seed, drives the library's public functions directly, checks every
   cell against its reference and prints its metrics.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench.exe --workload W --seed N --setup-only
     perfbench.exe --make-refs      # print perfbench/data/refs.json

   Workloads: quick-cold, sampled-xl (see README.md).  Run from the
   repository root; everything is written under .bench_build/perfbench.

   Output protocol: "ready CPU_S" once set-up is done (the host CPU
   seconds the process has used so far), then "# " report lines, then
   one JSON object {correct, attempted, failed, metrics}.  With --trace 0
   the metrics are the end-to-end ones except setup_s, which run.py takes
   from the ready lines of several start-ups; with --trace 1 they are the
   per-layer ones, measured in traced passes that follow untraced ones so
   the tracing overhead shows.

   Every time is host CPU time of this process unless it says wall: on
   a shared host, wall time swings with the processor time other tenants
   take, CPU time far less. *)

module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Run_cache = Levioso_uarch.Run_cache
module Cache = Levioso_uarch.Cache
module Predictor = Levioso_uarch.Predictor
module Emulator = Levioso_ir.Emulator
module Json = Levioso_telemetry.Json
module Span = Levioso_telemetry.Span
module Hostprof = Levioso_telemetry.Hostprof
module Schema = Levioso_telemetry.Schema
module Registry = Levioso_core.Registry
module Annotation = Levioso_core.Annotation
module Parallel = Levioso_util.Parallel
module Workload = Levioso_workload.Workload
module Levsuite = Levioso_workload.Levsuite
module Catalog = Levioso_serve.Catalog
module Compiler = Levioso_lang.Compiler
module Opt = Levioso_opt.Opt
module Server = Levioso_serve.Server
module Client = Levioso_serve.Client
module Protocol = Levioso_serve.Protocol

(* Measured passes run on one domain: with two domains on two shared
   processors, each stop-the-world minor collection waits for the
   domain whose processor another tenant holds.  The pool and serve
   probes use up to two domains. *)
let probe_domains = max 1 (min 2 (Domain.recommended_domain_count ()))
let work = Filename.concat ".bench_build" "perfbench"
let note fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* files                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let run_dir = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ()))
let socket = Filename.concat work (Printf.sprintf "s%d.sock" (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* accounting                                                          *)
(* ------------------------------------------------------------------ *)

(* One pass over a workload's fixed cell set. *)
type pass = {
  cpu : float;  (** host CPU s *)
  costs : float list;  (** host CPU s of each cell *)
  instrs : int;  (** simulated instructions *)
  rss : float;  (** peak resident MB *)
}

(* Everything one run measures.  End-to-end figures come from the
   untraced [passes]; [layer] samples and [pols] from traced passes and
   probes. *)
type acc = {
  mutable passes : pass list;
  mutable traced : pass list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  layer : (string, float list) Hashtbl.t;
  pols : (string, pol) Hashtbl.t;
}

(* Per-policy detailed-tier totals over traced cells. *)
and pol = {
  mutable cycles : int;  (** detailed cycles *)
  mutable live_ns : int;  (** time the detailed pipeline ran *)
  mutable words : float;  (** minor words allocated while it ran *)
  mutable calls : int;  (** policy callbacks *)
  mutable hook_ns : int;  (** time inside them *)
}

let acc =
  {
    passes = [];
    traced = [];
    attempted = 0;
    failed = 0;
    failures = [];
    layer = Hashtbl.create 32;
    pols = Hashtbl.create 16;
  }

let sample key v =
  Hashtbl.replace acc.layer key
    (v :: Option.value ~default:[] (Hashtbl.find_opt acc.layer key))

let samples key = Option.value ~default:[] (Hashtbl.find_opt acc.layer key)

let check ok what =
  acc.attempted <- acc.attempted + 1;
  if not ok then begin
    acc.failed <- acc.failed + 1;
    if List.length acc.failures < 5 then acc.failures <- what :: acc.failures
  end

let pol name =
  match Hashtbl.find_opt acc.pols name with
  | Some p -> p
  | None ->
    let p = { cycles = 0; live_ns = 0; words = 0.; calls = 0; hook_ns = 0 } in
    Hashtbl.replace acc.pols name p;
    p

let add_pol name ~cycles ~live_ns ~words (h : Hooks.t) =
  let p = pol name in
  p.cycles <- p.cycles + cycles;
  p.live_ns <- p.live_ns + live_ns;
  p.words <- p.words +. words;
  p.calls <- p.calls + h.Hooks.calls;
  p.hook_ns <- p.hook_ns + h.Hooks.hook_ns

let annotating p = p = "levioso" || p = "levioso-ctrl" || p = "levioso-static"
let ns x = float_of_int x *. 1e-9

let await fut =
  match Parallel.await fut with
  | v -> Ok v
  | exception e -> Error (Printexc.to_string e)

let with_hooks traced = if traced then Some (Hooks.create ()) else None

(* ------------------------------------------------------------------ *)
(* cells                                                               *)
(* ------------------------------------------------------------------ *)

type detailed = {
  d_cycles : int;
  d_instrs : int;
  d_cpu : float;
  probe_ns : int;
  create_ns : int;
  run_ns : int;
  store_ns : int;
  d_words : float;
  d_hit : bool;
  d_summary : Json.t;
}

(* One detailed cell exactly as the bench harness and the daemon run it:
   store probe, Pipeline.create, Pipeline.run, Summary, store write. *)
let detailed_cell ?hooks ~store (c : Cells.t) =
  let w = c.Cells.workload in
  let workload = w.Workload.name in
  let c0 = Measure.cpu_s () in
  let t0 = Measure.now_ns () in
  let hit =
    Run_cache.find store ~config:c.Cells.config ~workload ~policy:c.Cells.policy
  in
  let t1 = Measure.now_ns () in
  let maker = Registry.find_exn c.Cells.policy in
  let maker = match hooks with Some h -> Hooks.wrap h maker | None -> maker in
  let pipe =
    Pipeline.create ~mem_init:w.Workload.mem_init c.Cells.config ~policy:maker
      w.Workload.program
  in
  let t2 = Measure.now_ns () in
  let (), span = Hostprof.measure (fun () -> Pipeline.run pipe) in
  let t3 = Measure.now_ns () in
  Option.iter Hooks.close hooks;
  let summary = Summary.of_pipeline ~workload ~policy:c.Cells.policy pipe in
  let t4 = Measure.now_ns () in
  Run_cache.store store ~config:c.Cells.config ~workload ~policy:c.Cells.policy
    summary;
  let t5 = Measure.now_ns () in
  let st = Pipeline.stats pipe in
  {
    d_cycles = st.Sim_stats.cycles;
    d_instrs = st.Sim_stats.committed;
    d_cpu = Measure.cpu_s () -. c0;
    probe_ns = t1 - t0;
    create_ns = t2 - t1;
    run_ns = t3 - t2;
    store_ns = t5 - t4;
    d_words = span.Hostprof.minor_words;
    d_hit = hit <> None;
    d_summary = summary;
  }

let detailed_ok (c : Cells.t) d =
  check
    (d.d_cycles = c.Cells.cycles && not d.d_hit)
    (Printf.sprintf "%s: %d cycles, baseline %d" (Cells.name c) d.d_cycles c.Cells.cycles)

type sampled = {
  r : Sampler.result;
  s_cpu : float;
  s_ns : int;
  s_words : float;
  s_summary : Json.t;
}

let sampled_cell ?hooks (c : Cells.t) =
  let w = c.Cells.workload in
  let maker = Registry.find_exn c.Cells.policy in
  let maker = match hooks with Some h -> Hooks.wrap h maker | None -> maker in
  let c0 = Measure.cpu_s () in
  let t0 = Measure.now_ns () in
  let r, span =
    Hostprof.measure (fun () ->
        Sampler.run ~mem_init:w.Workload.mem_init Cells.sample_spec
          c.Cells.config ~policy:maker w.Workload.program)
  in
  let t1 = Measure.now_ns () in
  Option.iter Hooks.close hooks;
  {
    r;
    s_cpu = Measure.cpu_s () -. c0;
    s_ns = t1 - t0;
    s_words = span.Hostprof.minor_words;
    s_summary =
      Summary.of_sampled ~workload:w.Workload.name ~policy:c.Cells.policy r;
  }

let sample_err (c : Cells.t) (r : Sampler.result) =
  100.
  *. Float.abs (float_of_int (r.Sampler.estimated_cycles - c.Cells.cycles))
  /. float_of_int c.Cells.cycles

let sampled_ok (c : Cells.t) s =
  let err = sample_err c s.r in
  check (err <= 2.)
    (Printf.sprintf "%s: estimate %d off exact %d by %.2f%%" (Cells.name c)
       s.r.Sampler.estimated_cycles c.Cells.cycles err)

(* ------------------------------------------------------------------ *)
(* the daemon                                                          *)
(* ------------------------------------------------------------------ *)

let start_server ?cache ~spans ~access_log () =
  let mu = Mutex.create () and cond = Condition.create () in
  let state = ref `Starting in
  let set s =
    Mutex.protect mu (fun () ->
        state := s;
        Condition.broadcast cond)
  in
  let th =
    Thread.create
      (fun () ->
        try
          Server.run
            ~on_ready:(fun () -> set `Ready)
            {
              Server.socket_path = socket;
              pool_size = probe_domains;
              queue_max = None;
              cache;
              monitor = None;
              log = None;
              spans = Some spans;
              access_log = Some access_log;
              history = None;
            }
        with e -> set (`Failed (Printexc.to_string e)))
      ()
  in
  Mutex.lock mu;
  while !state = `Starting do
    Condition.wait cond mu
  done;
  let s = !state in
  Mutex.unlock mu;
  match s with
  | `Failed msg -> failwith ("serve: " ^ msg)
  | `Ready | `Starting -> th

let stop_server th =
  let c = Client.connect socket in
  Client.shutdown c;
  Client.close c;
  Thread.join th

let wire (c : Cells.t) =
  {
    Protocol.config = c.Cells.config;
    workload = c.Cells.workload.Workload.name;
    policy = c.Cells.policy;
    audit = false;
    sample = None;
  }

let float_field k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The daemon's access log: per-stage durations of every served cell. *)
let absorb_access_log ~probes path =
  let fields =
    [
      ("queue_s", "serve.queue");
      ("exec_s", "serve.exec");
      ("serialize_s", "serve.serialize");
      ("replay_s", "run_cache.replay");
    ]
    @ if probes then [ ("cache_probe_s", "run_cache.probe") ] else []
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun l ->
         match Json.of_string l with
         | Ok r when Json.member "error" r = None ->
           List.iter
             (fun (field, key) -> Option.iter (sample key) (float_field field r))
             fields
         | _ -> ())

(* One batch through a traced in-process daemon on [store], if any: the
   serve layer, measured from its access log and spans.  With [inject],
   an invalid cell (an unknown policy) leads the batch; it must come back
   as an error frame without aborting the rest, and counts as failed. *)
let serve_probe ~name ?store ~probes ~inject cells =
  let spans = Span.create () in
  let log = Filename.concat run_dir "access.jsonl" in
  let oc = open_out log in
  let cache = Option.map (fun dir -> Run_cache.create ~dir ()) store in
  let th = start_server ?cache ~spans ~access_log:oc () in
  let bogus = if inject then [ { (List.hd cells) with Protocol.policy = "nosuch" } ] else [] in
  let c = Client.connect socket in
  let results, _ =
    Client.submit ~cache:(store <> None)
      ~timings:(fun tm -> sample "serve.ack" tm.Client.ack_s)
      c (bogus @ cells)
  in
  Client.close c;
  stop_server th;
  close_out oc;
  absorb_access_log ~probes log;
  let path = Filename.concat work (name ^ ".trace.json") in
  Out_channel.with_open_text path (fun oc -> Span.write_chrome oc (Span.drain spans));
  note "serve spans written to %s" path;
  Array.iteri
    (fun i (r : Client.result_cell) ->
      let err = Option.value ~default:"" r.Client.error in
      check (r.Client.error = None) ("serve probe: cell " ^ string_of_int i ^ ": " ^ err))
    results

(* ------------------------------------------------------------------ *)
(* layer probes                                                        *)
(* ------------------------------------------------------------------ *)

let lang_probe () =
  let sources =
    List.map
      (fun (n, path) -> (n, In_channel.with_open_bin path In_channel.input_all))
      Cells.lev_sources
  in
  let compiled = List.map (fun (n, s) -> (n, Compiler.compile_exn s)) sources in
  List.iter
    (fun (n, p) ->
      check
        (Opt.optimize p = (Levsuite.find_exn n).Workload.program)
        ("lang: perfbench/data/lev/" ^ n ^ ".lev differs from Levsuite"))
    compiled;
  sample "lang.compile"
    (Measure.median_time ~reps:20 (fun () ->
         List.iter (fun (_, s) -> ignore (Compiler.compile s)) sources));
  sample "lang.optimize"
    (Measure.median_time ~reps:20 (fun () ->
         List.iter (fun (_, p) -> ignore (Opt.optimize p)) compiled))

let annotation_probe programs =
  let n = float_of_int (List.length programs) in
  sample "annotation.analyze"
    (Measure.median_time ~reps:5 (fun () ->
         List.iter (fun p -> ignore (Annotation.analyze p)) programs)
    /. n)

let emulator_probe () =
  let w = Catalog.find_workload_exn Cells.xl_name in
  let cfg = Config.default in
  let run key hooks =
    let rate =
      Measure.median
        (List.init 3 (fun _ ->
             let memory = Array.make cfg.Config.mem_words 0 in
             w.Workload.mem_init memory;
             let st = Emulator.create ~memory w.Workload.program in
             let hooks = hooks () in
             let t0 = Measure.now_s () in
             let n = Emulator.run_steps ~hooks st max_int in
             float_of_int n /. (Measure.now_s () -. t0) /. 1e6))
    in
    sample key rate
  in
  run "emulator.minstr_per_s" (fun () -> Emulator.no_hooks);
  run "emulator.warm_minstr_per_s" (fun () ->
      Sampler.warming_hooks cfg (Cache.Hierarchy.create cfg) (Predictor.create cfg))

let json_probe summaries =
  let n = float_of_int (List.length summaries) in
  let texts = List.map (Json.to_string ~minify:true) summaries in
  sample "json.print"
    (Measure.median_time ~reps:5 (fun () ->
         List.iter (fun s -> ignore (Json.to_string ~minify:true s)) summaries)
    /. n);
  sample "json.parse"
    (Measure.median_time ~reps:5 (fun () ->
         List.iter (fun s -> ignore (Json.of_string s)) texts)
    /. n);
  sample "json.summary_bytes"
    (Measure.sum (List.map (fun s -> float_of_int (String.length s)) texts) /. n)

(* What the daemon's replay guard does after a store hit. *)
let replayable summary =
  Schema.check ~what:"replay" summary = Ok ()
  && match Option.map Sim_stats.of_json (Json.member "stats" summary) with
     | Some (Ok _) -> true
     | _ -> false

(* Store, probe and replay [cells] with their summaries on a scratch
   store: the store layer for a workload whose path does not touch it. *)
let run_cache_probe cells =
  let dir = Filename.concat run_dir "probe-store" in
  let rc = Run_cache.create ~dir () in
  List.iter
    (fun ((c : Cells.t), summary) ->
      let config = c.Cells.config and workload = c.Cells.workload.Workload.name in
      let policy = c.Cells.policy in
      let t0 = Measure.now_s () in
      Run_cache.store rc ~config ~workload ~policy summary;
      let t1 = Measure.now_s () in
      let found = Run_cache.find rc ~config ~workload ~policy in
      let t2 = Measure.now_s () in
      let ok = Option.fold ~none:false ~some:replayable found in
      let t3 = Measure.now_s () in
      check ok ("run_cache probe: no replay of " ^ Cells.name c);
      sample "run_cache.store" (t1 -. t0);
      sample "run_cache.probe" (t2 -. t1);
      sample "run_cache.replay" (t3 -. t2))
    cells;
  rm_rf dir

(* The cells once more on a pool of [probe_domains] workers, untraced:
   the pool's queue wait (started - submitted) and the share of worker
   capacity left idle, mostly at the tail of the matrix. *)
let parallel_probe run_cell cells =
  Parallel.with_pool ~size:probe_domains (fun pool ->
      let t0 = Measure.now_s () in
      let futs = List.map (fun c -> Parallel.async pool (fun () -> run_cell c)) cells in
      List.iter (fun f -> ignore (await f)) futs;
      let wall = Measure.now_s () -. t0 in
      let busy =
        List.filter_map
          (fun f ->
            Option.map
              (fun tm ->
                sample "parallel.queue_wait" (tm.Parallel.started_s -. tm.Parallel.submitted_s);
                tm.Parallel.finished_s -. tm.Parallel.started_s)
              (Parallel.times f))
          futs
      in
      sample "parallel.idle_share"
        (Float.max 0. (1. -. (Measure.sum busy /. (float_of_int probe_domains *. wall)))))

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  min_passes : int;  (** enough kept cells for ten beyond p75 *)
  pass : traced:bool -> float list * int;
      (** one pass over the fixed cell set: per-cell CPU costs and
          simulated instructions *)
  layers : inject:bool -> unit;  (** probes after the traced passes *)
}

(* Measured passes go through a one-worker pool, which runs each job
   in the submitting domain. *)
let serial = Parallel.create ~size:1 ()

let run_serial f cells = List.map (fun c -> (c, await (Parallel.async serial (fun () -> f c)))) cells

(* quick-cold: the 87 baseline cells, each pass into an empty store. *)
let quick_cold ~rng ~tiny =
  let cells = Cells.strata rng ~group:6 (Cells.quick ()) in
  let cells =
    if tiny then
      List.filter (fun (c : Cells.t) -> c.Cells.workload.Workload.name = "pchase") cells
    else cells
  in
  let stores = ref 0 in
  let fresh_store () =
    incr stores;
    let dir = Filename.concat run_dir (Printf.sprintf "store-%d" !stores) in
    (dir, Run_cache.create ~dir ())
  in
  (* the latest traced pass: its store and summaries, for the probes *)
  let last = ref None in
  let pass ~traced =
    let dir, store = fresh_store () in
    let outs =
      run_serial
        (fun c ->
          let hooks = with_hooks traced in
          (hooks, detailed_cell ?hooks ~store c))
        cells
    in
    let summaries =
      List.filter_map
        (fun ((c : Cells.t), out) ->
          match out with
          | Error e ->
            check false (Cells.name c ^ ": " ^ e);
            None
          | Ok (hooks, d) ->
            detailed_ok c d;
            Option.iter
              (fun h ->
                sample "pipeline.create" (ns d.create_ns);
                sample "run_cache.probe" (ns d.probe_ns);
                sample "run_cache.store" (ns d.store_ns);
                if annotating c.Cells.policy then
                  sample "annotation.calls" (float_of_int h.Hooks.makes);
                add_pol c.Cells.policy ~cycles:d.d_cycles ~live_ns:d.run_ns
                  ~words:d.d_words h)
              hooks;
            Some (c, d))
        outs
    in
    if traced then begin
      Option.iter (fun (dir, _) -> rm_rf dir) !last;
      last := Some (dir, summaries)
    end
    else rm_rf dir;
    ( List.map (fun (_, d) -> d.d_cpu) summaries,
      List.fold_left (fun n (_, d) -> n + d.d_instrs) 0 summaries )
  in
  let layers ~inject =
    let dir, summaries = Option.get !last in
    json_probe (List.map (fun (_, d) -> d.d_summary) summaries);
    annotation_probe
      (List.sort_uniq compare
         (List.map (fun (c : Cells.t) -> c.Cells.workload.Workload.program) cells));
    let pdir, store = fresh_store () in
    parallel_probe
      (fun c ->
        let d = detailed_cell ~store c in
        detailed_ok c d)
      cells;
    rm_rf pdir;
    (* the serve layer, replaying the traced pass's store: every cell hits *)
    serve_probe ~name:"quick-cold" ~store:dir ~probes:false ~inject
      (List.map (fun (c, _) -> wire c) summaries)
  in
  { min_passes = (if tiny then 1 else 2); pass; layers }

(* sampled-xl: stream-xl under 5000:2000:20 for every policy. *)
let sampled_xl ~rng ~tiny =
  let cells = Cells.shuffle rng (Cells.stream_xl ()) in
  let last = ref [] in
  let pass ~traced =
    let outs =
      run_serial
        (fun c ->
          let hooks = with_hooks traced in
          (hooks, sampled_cell ?hooks c))
        cells
    in
    let done_ =
      List.filter_map
        (fun ((c : Cells.t), out) ->
          match out with
          | Error e ->
            check false (Cells.name c ^ ": " ^ e);
            None
          | Ok (hooks, s) ->
            sampled_ok c s;
            Option.iter
              (fun h ->
                let r = s.r in
                sample "sampler.err_pct" (sample_err c r);
                sample "sampler.fast_share"
                  (1. -. (float_of_int h.Hooks.detailed_ns /. float_of_int s.s_ns));
                sample "sampler.detailed_instr_share"
                  (float_of_int r.Sampler.detailed_instrs
                  /. float_of_int r.Sampler.total_instrs);
                sample "sampler.intervals" (float_of_int r.Sampler.intervals);
                if annotating c.Cells.policy then
                  sample "annotation.calls" (float_of_int h.Hooks.makes);
                add_pol c.Cells.policy ~cycles:r.Sampler.stats.Sim_stats.cycles
                  ~live_ns:h.Hooks.detailed_ns ~words:s.s_words h)
              hooks;
            Some (c, s))
        outs
    in
    if traced then last := done_;
    ( List.map (fun (_, s) -> s.s_cpu) done_,
      List.fold_left (fun n (_, s) -> n + s.r.Sampler.total_instrs) 0 done_ )
  in
  let layers ~inject =
    let summaries = List.map (fun (c, s) -> (c, s.s_summary)) !last in
    json_probe (List.map snd summaries);
    run_cache_probe summaries;
    let w = Catalog.find_workload_exn Cells.xl_name in
    annotation_probe [ w.Workload.program ];
    (* interval pipelines adopt the fast tier's state; create them so *)
    let cfg = Config.default in
    let memory = Array.make cfg.Config.mem_words 0 in
    let hierarchy = Cache.Hierarchy.create cfg and predictor = Predictor.create cfg in
    List.iter
      (fun (c : Cells.t) ->
        let t0 = Measure.now_s () in
        ignore
          (Pipeline.create ~memory ~hierarchy ~predictor cfg
             ~policy:(Registry.find_exn c.Cells.policy) w.Workload.program
            : Pipeline.t);
        sample "pipeline.create" (Measure.now_s () -. t0))
      cells;
    parallel_probe (fun c -> sampled_ok c (sampled_cell c)) cells;
    serve_probe ~name:"sampled-xl" ~probes:true ~inject
      (List.map
         (fun (c : Cells.t) -> { (wire c) with Protocol.sample = Some Cells.sample_spec })
         cells)
  in
  (* a fastest quarter of five passes: ten cells beyond p75 *)
  { min_passes = (if tiny then 1 else 20); pass; layers }

let make name ~rng ~tiny =
  match name with
  | "quick-cold" -> quick_cold ~rng ~tiny
  | "sampled-xl" -> sampled_xl ~rng ~tiny
  | w -> failwith ("unknown workload " ^ w ^ " (quick-cold, sampled-xl)")

(* ------------------------------------------------------------------ *)
(* reports                                                             *)
(* ------------------------------------------------------------------ *)

let med key = Measure.median (samples key)
let cpus ps = List.map (fun p -> p.cpu) ps

(* The host's speed changes in steps that last tens of seconds: other
   tenants' load on the processors this one shares can make the same
   pass take 1.7 times the CPU.  The end-to-end metrics therefore come
   from the fastest quarter of the passes, at least one, chosen by pass
   CPU: the same rule on every commit. *)
let end_to_end () =
  let cut = Measure.quantile 0.25 (cpus acc.passes) in
  let ps = List.filter (fun p -> p.cpu <= cut) acc.passes in
  let costs = List.concat_map (fun p -> p.costs) ps in
  let n = List.length costs in
  let pct, tail = Measure.tail ~want:75. costs in
  let instrs = List.fold_left (fun n p -> n + p.instrs) 0 ps in
  note "%d of %d passes kept, %d cells; cell_tail_ms is p%.0f of %d samples"
    (List.length ps) (List.length acc.passes) n pct n;
  [
    ("pass_cpu_s", Measure.median (cpus ps), "s");
    ("cell_p50_ms", 1e3 *. Measure.median costs, "ms");
    ("cell_tail_ms", 1e3 *. tail, "ms");
    ("sim_mips", float_of_int instrs /. Measure.sum (cpus ps) /. 1e6, "Minstr/s");
    (* not a time: every pass *)
    ("peak_rss_mb", Measure.median (List.map (fun p -> p.rss) acc.passes), "MB");
  ]

let per_layer () =
  let us k = 1e6 *. med k and ms k = 1e3 *. med k in
  let or_ default k = if samples k = [] then default else med k in
  let per_pass k =
    Measure.sum (samples k) /. float_of_int (max 1 (List.length acc.traced))
  in
  let untraced = Measure.median (cpus acc.passes)
  and traced = Measure.median (cpus acc.traced) in
  let policies =
    List.concat_map
      (fun name ->
        let p = pol name in
        let kcycles = float_of_int p.cycles /. 1e3 in
        (* the wrapper's own clock reads, charged to neither side *)
        let wrapper = Hooks.overhead_ns () *. float_of_int p.calls in
        let live = float_of_int p.live_ns -. wrapper in
        [
          ( "pipeline." ^ name ^ ".mcycles_per_s",
            float_of_int p.cycles /. live *. 1e3,
            "Mcycles/s" );
          ("pipeline." ^ name ^ ".words_per_cycle", p.words /. float_of_int p.cycles, "words/cycle");
          ("policy." ^ name ^ ".hook_calls_per_kcycle", float_of_int p.calls /. kcycles, "calls/kcycle");
          ( "policy." ^ name ^ ".hook_share",
            Float.max 0. (float_of_int p.hook_ns -. wrapper) /. live,
            "ratio" );
        ])
      Registry.names
  in
  [
    ("lang.compile_us", us "lang.compile", "us");
    ("lang.optimize_us", us "lang.optimize", "us");
    ("annotation.analyze_us", us "annotation.analyze", "us");
    ("annotation.calls", per_pass "annotation.calls", "count");
    ("pipeline.create_ms", ms "pipeline.create", "ms");
  ]
  @ policies
  @ [
      ("emulator.minstr_per_s", med "emulator.minstr_per_s", "Minstr/s");
      ("emulator.warm_minstr_per_s", med "emulator.warm_minstr_per_s", "Minstr/s");
      ("sampler.fast_share", or_ 0. "sampler.fast_share", "ratio");
      ("sampler.detailed_instr_share", or_ 1. "sampler.detailed_instr_share", "ratio");
      ("sampler.intervals", per_pass "sampler.intervals", "count");
      ("sampler.err_pct", List.fold_left Float.max 0. (samples "sampler.err_pct"), "pct");
      ("run_cache.probe_us", us "run_cache.probe", "us");
      ("run_cache.replay_us", us "run_cache.replay", "us");
      ("run_cache.store_us", us "run_cache.store", "us");
      ("json.print_us", us "json.print", "us");
      ("json.parse_us", us "json.parse", "us");
      ("json.summary_bytes", med "json.summary_bytes", "bytes");
      ("parallel.queue_wait_ms", ms "parallel.queue_wait", "ms");
      ("parallel.idle_share", med "parallel.idle_share", "ratio");
      ("serve.ack_ms", ms "serve.ack", "ms");
      ("serve.queue_ms", ms "serve.queue", "ms");
      ("serve.exec_ms", ms "serve.exec", "ms");
      ("serve.serialize_ms", ms "serve.serialize", "ms");
      ("trace.untraced_cpu_s", untraced, "s");
      ("trace.traced_cpu_s", traced, "s");
      ("trace.overhead_pct", 100. *. ((traced /. untraced) -. 1.), "pct");
    ]

let print_result metrics =
  List.iter (fun (n, v, u) -> note "%-40s %14.6g %s" n v u) metrics;
  note "failed_frac = %d / %d = %.4f" acc.failed acc.attempted
    (float_of_int acc.failed /. float_of_int (max 1 acc.attempted));
  List.iter (fun f -> note "FAILED %s" f) (List.rev acc.failures);
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (acc.failed = 0 && acc.attempted > 0));
        ("attempted", Json.Int acc.attempted);
        ("failed", Json.Int acc.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) ->
                 (n, Json.Obj [ ("value", Json.float v); ("unit", Json.String u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string ~minify:true json)

(* ------------------------------------------------------------------ *)
(* runs                                                                *)
(* ------------------------------------------------------------------ *)

(* One pass from a collected heap, with its own peak resident set.
   Pass [index] runs pinned to processor [index] (modulo their number):
   the passes take turns on the processors, so the fastest quarter can
   come from whichever one other tenants leave alone. *)
let measure_pass (w : workload) ~traced ~index =
  let pinned = Measure.pin index in
  Gc.full_major ();
  Measure.reset_peak_rss ();
  let t0 = Measure.now_s () and c0 = Measure.cpu_s () in
  let costs, instrs = w.pass ~traced in
  let wall = Measure.now_s () -. t0 and cpu = Measure.cpu_s () -. c0 in
  let p = { cpu; costs; instrs; rss = Measure.peak_rss_mb () } in
  note "%s pass %d%s: wall %.4f s, cpu %.4f s, %d cells, %d instructions"
    (if traced then "traced" else "untraced")
    index
    (if pinned then " (pinned)" else "")
    wall cpu (List.length costs) instrs;
  p

(* Untraced passes for the whole run, or for its first half when traced;
   then traced passes and the layer probes. *)
let run (w : workload) ~seconds ~traced ~inject =
  let start = Measure.now_s () in
  let before t = let e = Measure.now_s () -. start in e < t && e < 120. in
  let budget = if traced then seconds /. 2. else seconds in
  while List.length acc.passes < w.min_passes || before budget do
    let index = List.length acc.passes in
    acc.passes <- measure_pass w ~traced:false ~index :: acc.passes
  done;
  if traced then begin
    while acc.traced = [] || before seconds do
      let index = List.length acc.traced in
      acc.traced <- measure_pass w ~traced:true ~index :: acc.traced
    done;
    (* the probes' pools and daemon spread over every processor *)
    Measure.unpin ();
    w.layers ~inject;
    lang_probe ();
    emulator_probe ()
  end;
  print_result (if traced then per_layer () else end_to_end ())

(* Exact full-detail cycles of stream-xl under every policy. *)
let make_refs () =
  let detailed (c : Cells.t) =
    let w = c.Cells.workload in
    let pipe =
      Pipeline.create ~mem_init:w.Workload.mem_init c.Cells.config
        ~policy:(Registry.find_exn c.Cells.policy) w.Workload.program
    in
    Pipeline.run pipe;
    (Pipeline.stats pipe).Sim_stats.cycles
  in
  let xl = Catalog.find_workload_exn Cells.xl_name in
  let cells =
    List.map
      (fun policy -> { Cells.config = Config.default; workload = xl; policy; cycles = 0 })
      Registry.names
  in
  let cycles =
    Parallel.with_pool ~size:probe_domains (fun pool -> Parallel.map pool detailed cells)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("sample_spec", Json.String (Sampler.spec_to_string Cells.sample_spec));
            ("stream_xl", Json.Obj (List.map2 (fun p n -> (p, Json.Int n)) Registry.names cycles));
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false and tiny = ref false and inject = ref false in
  let refs = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME quick-cold | sampled-xl");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " set up, print ready, exit");
      ("--tiny", Arg.Set tiny, " tiny cell sets (self-test)");
      ("--inject-invalid", Arg.Set inject, " one invalid cell in the serve probe (self-test)");
      ("--make-refs", Arg.Set refs, " print perfbench/data/refs.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !refs then make_refs ()
  else begin
    mkdir_p run_dir;
    Fun.protect
      ~finally:(fun () -> rm_rf run_dir)
      (fun () ->
        let w = make !workload ~rng:(Random.State.make [| !seed |]) ~tiny:!tiny in
        Printf.printf "ready %.6f\n%!" (Measure.cpu_s ());
        if not !setup_only then
          run w ~seconds:!seconds ~traced:(!trace = 1) ~inject:!inject)
  end
