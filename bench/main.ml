(* The evaluation harness: regenerates every table and figure of the
   reconstructed Levioso evaluation (see DESIGN.md section 4 for the
   experiment index and EXPERIMENTS.md for paper-vs-measured records).

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- --help     # every flag
     dune exec bench/main.exe -- --list     # experiment ids
     dune exec bench/main.exe -- --only fig3 --only table2
     dune exec bench/main.exe -- --quick    # subsampled workloads
     dune exec bench/main.exe -- --json results.json  # machine-readable
     dune exec bench/main.exe -- -j 8       # matrix on 8 domains
     dune exec bench/main.exe -- --no-cache # ignore bench/.cache
     dune exec bench/main.exe -- --audit    # restriction provenance
                                            # (never cached)
     dune exec bench/main.exe -- --sample 5000:2000:20  # two-tier sampled
                                            # engine: cycles become
                                            # estimates (never cached,
                                            # excludes --audit)
     dune exec bench/main.exe -- --progress # live status line (stderr)
     dune exec bench/main.exe -- --metrics metrics.prom  # OpenMetrics
     dune exec bench/main.exe -- --remote levioso.sock   # submit the whole
                                            # matrix to a levioso_serve
                                            # daemon (results
                                            # bit-identical to local)
     dune exec bench/main.exe -- --cache-prune 30  # delete stale store
                                            # entries, run nothing

   -j, --audit, --sample, --remote and the monitor flags are the ones
   levioso_sim takes (Levioso_cli.Cli), and the matrix runs through the
   same Cli.run_matrix, here or on the daemon; a bad value of any flag
   is a usage error (exit 124), and an output file that cannot be
   written, or a daemon that cannot be reached, exits 1 with one line
   naming it.

   Every (config, workload, policy) simulation the figures need is
   independent, so the matrix is computed once, up front, on a domain
   pool (-j N, default all cores); figures then only read it, and a
   figure reading a cell that was not computed is an error.  Results
   are deterministic: -j N output is bit-identical to -j 1.  Each cell
   runs through Levioso_serve.Engine.run_cell, the daemon's own cell
   runner, so a local cell and a --remote one are the same bits by
   construction.  Plain cells are also persisted under
   bench/.cache keyed by config digest + workload + policy + a digest of
   this executable, so a warm re-run (e.g. --only fig3 after a full run)
   replays from disk instead of re-simulating; any rebuild or config
   change misses.  Each run also drops BENCH_matrix.json (per-cell wall
   clock, source and host profile + totals) in the working directory. *)

module Config = Levioso_uarch.Config
module Sim_stats = Levioso_uarch.Sim_stats
module Summary = Levioso_uarch.Summary
module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Registry = Levioso_core.Registry
module Annotation = Levioso_core.Annotation
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Gadget = Levioso_attack.Gadget
module Harness = Levioso_attack.Harness
module Report = Levioso_util.Report
module Stats = Levioso_util.Stats
module Run_cache = Levioso_uarch.Run_cache
module Hostprof = Levioso_telemetry.Hostprof
module Sampler = Levioso_uarch.Sampler
module Serve_protocol = Levioso_serve.Protocol
module Serve_client = Levioso_serve.Client
module Engine = Levioso_serve.Engine
module Cli = Levioso_cli.Cli

(* Set once from the command line, before any cell runs. *)
let quick = ref false
let jobs = ref 1
let use_cache = ref true
let audit = ref false
let sample : Sampler.spec option ref = ref None

(* --remote SOCKET: the whole matrix is submitted to a levioso_serve
   daemon instead of being simulated in-process.  The daemon runs each
   cell through the same Engine.run_cell a local cell uses, so figures
   and --json output are bit-identical either way. *)
let remote : string option ref = ref None

let workloads () =
  if !quick then List.filteri (fun i _ -> i mod 2 = 0) Suite.all else Suite.all

let paper_schemes = Registry.paper_schemes

(* sweep axes, shared between the figures and the parallel prefetch *)
let fig5_sizes () = if !quick then [ 48; 96 ] else [ 48; 96; 192 ]

let fig6_predictors =
  [ Config.Always_taken; Config.Bimodal; Config.Gshare; Config.Tage ]

let fig7_budgets () = if !quick then [ 1; 8 ] else [ 1; 2; 4; 8; 16 ]
let sweep_schemes = [ "delay"; "dom"; "stt"; "levioso" ]

let fig8_schemes =
  [
    "fence"; "delay"; "dom"; "stt"; "nda"; "levioso-static"; "levioso";
    "levioso-ctrl";
  ]

(* ------------------------------------------------------------------ *)
(* shared simulation matrix: one run per (config, workload, policy)   *)
(* ------------------------------------------------------------------ *)

(* Pipelines are too big to cache whole (8 MB of simulated memory each),
   so each cell keeps its counters plus the machine-readable summary the
   --json report and the on-disk cache reuse. *)
type cell_result = {
  stats : Sim_stats.t;
  summary : Json.t;
  wall_s : float;
  source : string; (* "sim" | "cache" | "remote-sim" | "remote-cache" *)
  host : Json.t;
      (* host self-profiling phases (wall clock and the words
         Hostprof.measure counts); lands in BENCH_matrix.json,
         deliberately NOT in the --json summaries, which are
         byte-compared across -j N *)
}

(* Filled once, by [prefetch_matrix], before any figure runs; the
   figures only read it. *)
let matrix : (Config.t * string * string, cell_result) Hashtbl.t =
  Hashtbl.create 256

let disk : Run_cache.t option ref = ref None

let protocol_cell config (w : Workload.t) policy =
  {
    Serve_protocol.config;
    workload = w.Workload.name;
    policy;
    audit = !audit;
    sample = !sample;
  }

(* Figures read stats.cycles, which Summary.stats fills with the estimate
   for a sampled cell. *)
let stats_of ~what summary =
  match Summary.stats summary with
  | Ok stats -> stats
  | Error msg -> failwith (what ^ ": " ^ msg)

(* One local cell, on a pool worker.  The store is offered for every
   cell; Engine.cacheable keeps audited and sampled cells out of it.
   Each cell gets a private audit recorder inside run_cell, so -j N
   stays bit-identical. *)
let compute_cell cell =
  let o, span = Hostprof.measure (fun () -> Engine.run_cell ?cache:!disk cell) in
  {
    stats = stats_of ~what:"bench" o.Engine.summary;
    summary = o.Engine.summary;
    wall_s = o.Engine.wall_s;
    source = o.Engine.source;
    host = Hostprof.phases_to_json [ ("cell", span) ];
  }

(* The experiment running now, named by a failed lookup. *)
let experiment = ref ""

(* A config by the Table 1 rows where it differs from the default. *)
let config_name config =
  let dflt = Config.to_rows Config.default in
  match List.filter (fun r -> not (List.mem r dflt)) (Config.to_rows config) with
  | [] -> "default"
  | rows -> String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ v) rows)

(* Strict: a cell the figure reads but [cells_of] did not list is a bug
   in [cells_of], reported as such rather than simulated here. *)
let get_cell config (w : Workload.t) policy =
  match Hashtbl.find_opt matrix (config, w.Workload.name, policy) with
  | Some c -> c
  | None ->
    Cli.runtime_error ~prog:"bench"
      (Printf.sprintf
         "%s reads the cell (config %s, %s, %s), which cells_of %S leaves out"
         !experiment (config_name config) w.Workload.name policy !experiment)

let cell w policy = get_cell Config.default w policy
let run_stats config w policy = (get_cell config w policy).stats

let norm_time w policy =
  let base = (cell w "unsafe").stats.Sim_stats.cycles in
  float_of_int (cell w policy).stats.Sim_stats.cycles /. float_of_int base

(* Exactly the cells each experiment reads: [get_cell] fails on one it
   misses, and one it invents would make the --json export differ from
   the experiments that ran. *)
let cells_of id =
  let ws = workloads () in
  let cross configs ws ps =
    List.concat_map
      (fun c ->
        List.concat_map (fun w -> List.map (fun p -> protocol_cell c w p) ps) ws)
      configs
  in
  let dflt ps = cross [ Config.default ] ws ps in
  match id with
  | "fig2" -> dflt [ "delay"; "levioso" ]
  | "fig3" -> dflt (("unsafe" :: paper_schemes) @ [ "levioso-ctrl" ])
  | "fig4" -> dflt paper_schemes
  | "fig5" ->
    cross
      (List.map
         (fun n -> { Config.default with Config.rob_size = n })
         (fig5_sizes ()))
      ws
      ("unsafe" :: sweep_schemes)
  | "fig6" ->
    cross
      (List.map
         (fun p -> { Config.default with Config.predictor = p })
         fig6_predictors)
      ws
      ("unsafe" :: sweep_schemes)
  | "fig7" ->
    cross
      (List.map
         (fun k -> { Config.default with Config.depset_budget = k })
         (fig7_budgets ()))
      ws [ "levioso" ]
    @ dflt [ "unsafe"; "levioso-ctrl"; "levioso-static"; "delay" ]
  | "fig8" -> dflt ("unsafe" :: fig8_schemes)
  | "fig9" ->
    cross [ Config.default ] Levioso_workload.Levsuite.all
      ("unsafe" :: paper_schemes)
  | "audit" -> if !audit then dflt paper_schemes else []
  | _ -> []

(* A cell the daemon computed.  Host self-profiling is local by
   definition: remote cells have no host phases. *)
let of_remote (r : Serve_client.result_cell) =
  let summary = r.Serve_client.summary in
  {
    stats = stats_of ~what:"--remote" summary;
    summary;
    wall_s = r.Serve_client.wall_s;
    source = "remote-" ^ r.Serve_client.source;
    host = Json.Obj [];
  }

(* Fill the matrix once: de-duplicate the cells the selected experiments
   read, compute them (on the domain pool, or through the daemon), then
   store them serially.  The monitor is strictly observational, so
   --json output stays bit-identical with it on or off. *)
let prefetch_matrix ~monitor ids =
  let seen = Hashtbl.create 256 in
  let todo =
    List.filter
      (fun cell -> (not (Hashtbl.mem seen cell)) && (Hashtbl.add seen cell (); true))
      (List.concat_map cells_of ids)
  in
  let results =
    Cli.run_matrix ~prog:"bench" ?remote:!remote ~cache:!use_cache ?monitor
      ~jobs:!jobs ~local:compute_cell ~of_remote todo
  in
  List.iter2
    (fun (c : Serve_protocol.cell) r ->
      Hashtbl.replace matrix (c.config, c.workload, c.policy) r)
    todo results

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline (Report.section "table1: simulated core configuration");
  print_endline
    (Report.table ~header:[ "parameter"; "value" ]
       ~rows:(List.map (fun (k, v) -> [ k; v ]) (Config.to_rows Config.default)))

let table2 () =
  print_endline
    (Report.section
       "table2: security evaluation — secret recovery per gadget x defense");
  (* each gadget observed by cache probe, then by its own rdcycle timing *)
  let columns =
    List.concat_map
      (fun (label, make) ->
        [ (label ^ " (probe)", make, false); (label ^ " (rdcycle)", make, true) ])
      Gadget.roster
  in
  (* a cell differs from the Registry's threat-model table when it leaks
     although the policy stops the gadget's secret class, or the other way
     round *)
  let differ = ref [] in
  let row policy =
    policy
    :: List.map
         (fun (column, (make : Gadget.maker), timed) ->
           let g = make ~timing:timed ~secret:42 () in
           let verdict =
             (if timed then Harness.run_timed else Harness.run) ~policy g
           in
           if Harness.leaked verdict = Registry.stops policy g.Gadget.secret_class
           then differ := (policy ^ " " ^ column) :: !differ;
           Harness.verdict_to_string verdict)
         columns
  in
  let rows = List.map row Registry.names in
  print_endline
    (Report.table
       ~header:("defense" :: List.map (fun (c, _, _) -> c) columns)
       ~rows);
  let total = List.length rows * List.length columns in
  print_endline
    (match List.rev !differ with
    | [] ->
      Printf.sprintf "All %d verdicts match the threat-model table (Registry.stops)."
        total
    | differ ->
      Printf.sprintf
        "%d of %d verdicts differ from the threat-model table \
         (Registry.stops): %s."
        (List.length differ) total (String.concat ", " differ))

let table3 () =
  print_endline (Report.section "table3: compiler statistics per workload");
  let header =
    [ "workload"; "instrs"; "branches"; "reconv"; "region"; "dep-free"; "max set" ]
  in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let annotation = Annotation.analyze w.Workload.program in
        let find k = List.assoc k (Annotation.stats annotation) in
        [
          w.Workload.name;
          find "static instrs";
          find "branches";
          find "reconv coverage";
          find "mean region";
          find "dep-free instrs";
          find "max dep set";
        ])
      (workloads ())
  in
  print_endline (Report.table ~header ~rows)

let fig2 () =
  print_endline
    (Report.section
       "fig2: motivation — transmitters actually dependent on unresolved branches");
  let header =
    [ "workload"; "ready under any older branch"; "true dependency only" ]
  in
  let pct restricted total =
    if total = 0 then "0.0%"
    else
      Printf.sprintf "%.1f%%"
        (100.0 *. float_of_int restricted /. float_of_int total)
  in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let d = cell w "delay" in
        let l = cell w "levioso" in
        [
          w.Workload.name;
          pct d.stats.Sim_stats.restricted_transmitters
            d.stats.Sim_stats.committed_transmitters;
          pct l.stats.Sim_stats.restricted_transmitters
            l.stats.Sim_stats.committed_transmitters;
        ])
      (workloads ())
  in
  print_endline (Report.table ~header ~rows);
  print_endline
    "The gap between the columns is the paper's motivating observation: most\n\
     transmitters that sit behind *some* unresolved branch do not truly\n\
     depend on it."

let fig3 () =
  print_endline
    (Report.section "fig3 (headline): normalized execution time vs unsafe baseline");
  let schemes = paper_schemes @ [ "levioso-ctrl" ] in
  let header = "workload" :: schemes in
  let body =
    List.map
      (fun (w : Workload.t) ->
        w.Workload.name
        :: List.map (fun p -> Printf.sprintf "%.2f" (norm_time w p)) schemes)
      (workloads ())
  in
  let series p = List.map (fun w -> norm_time w p) (workloads ()) in
  let mean_row label f =
    label :: List.map (fun p -> Printf.sprintf "%.2f" (f (series p))) schemes
  in
  let rows =
    body @ [ mean_row "geomean" Stats.geomean; mean_row "arith-mean" Stats.mean ]
  in
  print_endline (Report.table ~header ~rows);
  print_endline
    (Report.grouped_bars ~title:"normalized execution time (1.0 = unsafe)"
       ~group_labels:(List.map (fun w -> w.Workload.name) (workloads ()))
       ~series:(List.map (fun p -> (p, series p)) [ "delay"; "dom"; "levioso" ])
       ());
  let overhead p = Stats.overhead_pct ~baseline:1.0 (Stats.geomean (series p)) in
  Printf.printf
    "\nPaper (abstract): prior defenses 51%% and 43%% overhead, Levioso 23%%.\n\
     Measured geomean overheads: delay %+.1f%%, dom %+.1f%%, levioso %+.1f%%\n\
     (stt %+.1f%%, fence %+.1f%%).  Ordering and the large prior-vs-levioso\n\
     gap are reproduced; see EXPERIMENTS.md for absolute-value discussion.\n"
    (overhead "delay") (overhead "dom") (overhead "levioso") (overhead "stt")
    (overhead "fence")

let fig4 () =
  print_endline
    (Report.section
       "fig4: where the time goes — transmitter stall cycles per kilo-instruction");
  let header = "workload" :: paper_schemes in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        w.Workload.name
        :: List.map
             (fun p ->
               let s = (cell w p).stats in
               Printf.sprintf "%.0f"
                 (1000.0
                 *. float_of_int s.Sim_stats.transmit_stall_cycles
                 /. float_of_int (max 1 s.Sim_stats.committed)))
             paper_schemes)
      (workloads ())
  in
  print_endline (Report.table ~header ~rows)

let sweep_geomeans configs schemes =
  List.map
    (fun (label, config) ->
      let norm w p =
        let base = (run_stats config w "unsafe").Sim_stats.cycles in
        let c = (run_stats config w p).Sim_stats.cycles in
        float_of_int c /. float_of_int base
      in
      ( label,
        List.map
          (fun p -> Stats.geomean (List.map (fun w -> norm w p) (workloads ())))
          schemes ))
    configs

let print_sweep ~title ~axis configs schemes =
  print_endline (Report.section title);
  let results = sweep_geomeans configs schemes in
  let rows =
    List.map
      (fun (label, values) ->
        label :: List.map (fun v -> Printf.sprintf "%.2f" v) values)
      results
  in
  print_endline (Report.table ~header:(axis :: schemes) ~rows)

let fig5 () =
  print_sweep ~title:"fig5: sensitivity — geomean normalized time vs ROB size"
    ~axis:"ROB"
    (List.map
       (fun n -> (string_of_int n, { Config.default with Config.rob_size = n }))
       (fig5_sizes ()))
    sweep_schemes

let fig6 () =
  print_sweep
    ~title:"fig6: sensitivity — geomean normalized time vs branch predictor"
    ~axis:"predictor"
    (List.map
       (fun p ->
         ( Config.predictor_kind_to_string p,
           { Config.default with Config.predictor = p } ))
       fig6_predictors)
    sweep_schemes

let fig7 () =
  print_endline
    (Report.section "fig7: ablation — Levioso dependency-set hardware budget");
  let budgets = fig7_budgets () in
  let rows =
    List.map
      (fun k ->
        let config = { Config.default with Config.depset_budget = k } in
        let norm w =
          let base = (cell w "unsafe").stats.Sim_stats.cycles in
          let c = (run_stats config w "levioso").Sim_stats.cycles in
          float_of_int c /. float_of_int base
        in
        [
          string_of_int k;
          Printf.sprintf "%.2f" (Stats.geomean (List.map norm (workloads ())));
        ])
      budgets
  in
  let reference_row name =
    [
      Printf.sprintf "(%s)" name;
      Printf.sprintf "%.2f"
        (Stats.geomean (List.map (fun w -> norm_time w name) (workloads ())));
    ]
  in
  let reference =
    List.map reference_row [ "levioso-ctrl"; "levioso-static"; "delay" ]
  in
  print_endline
    (Report.table
       ~header:[ "budget K"; "geomean norm. time" ]
       ~rows:(rows @ reference));
  print_endline
    "Small budgets overflow to delay-like conservatism.  The control-only\n\
     variant is cheapest but forfeits operand-propagation coverage, and the\n\
     static-hint variant shows what dynamic instance tracking buys."

let fig8 () =
  print_endline
    (Report.section
       "fig8 (appendix): the full defense spectrum — geomean normalized time");
  let series =
    List.map
      (fun p ->
        (p, Stats.geomean (List.map (fun w -> norm_time w p) (workloads ()))))
      fig8_schemes
  in
  print_endline
    (Report.bar_chart ~title:"geomean normalized execution time (1.0 = unsafe)" ()
       series);
  print_endline
    "Sandbox-model schemes (stt, nda) sit low but leak register secrets;
     among comprehensive schemes the ordering is
     fence > delay > dom > levioso-static > levioso > levioso-ctrl(unsound)."

let fig9 () =
  print_endline
    (Report.section
       "fig9 (appendix): compiled-from-source (Lev) workloads under each scheme");
  let lev = Levioso_workload.Levsuite.all in
  let header = "workload" :: paper_schemes in
  let norm w p =
    let base = (run_stats Config.default w "unsafe").Sim_stats.cycles in
    let c = (run_stats Config.default w p).Sim_stats.cycles in
    float_of_int c /. float_of_int base
  in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        w.Workload.name
        :: List.map (fun p -> Printf.sprintf "%.2f" (norm w p)) paper_schemes)
      lev
  in
  let geo =
    "geomean"
    :: List.map
         (fun p ->
           Printf.sprintf "%.2f" (Stats.geomean (List.map (fun w -> norm w p) lev)))
         paper_schemes
  in
  print_endline (Report.table ~header ~rows:(rows @ [ geo ]));
  print_endline
    "Compiler-generated code (inlined calls, materialized conditions) keeps
     the same defense ordering as the hand-written kernels."

(* The explanation experiment: how much of each defense's restriction is
   over-restriction (no true branch dependency)?  Reads the audit
   section the --audit flag adds to every cell summary. *)
let audit_exp () =
  print_endline
    (Report.section
       "audit: restriction necessity — share of restricted cycles without a \
        true branch dependency");
  if not !audit then
    print_endline
      "  (skipped: run with --audit to collect restriction provenance)"
  else begin
    let share w p =
      match Summary.run_of_json (cell w p).summary with
      | Ok run ->
        Option.map
          (fun (a : Summary.audit) -> (a.restricted, a.unnecessary))
          run.Summary.audit
      | Error msg -> failwith ("audit: " ^ msg)
    in
    let render = function
      | None -> "-"
      | Some (0, _) -> "0.0% (of 0)"
      | Some (total, unnec) ->
        Printf.sprintf "%.1f%% (of %d)"
          (100.0 *. float_of_int unnec /. float_of_int total)
          total
    in
    let header = "workload" :: paper_schemes in
    let rows =
      List.map
        (fun (w : Workload.t) ->
          w.Workload.name
          :: List.map (fun p -> render (share w p)) paper_schemes)
        (workloads ())
    in
    print_endline (Report.table ~header ~rows);
    print_endline
      "Levioso restricts (almost) only true dependencies — its unnecessary\n\
       share stays at the bottom of every row — while branch-blind schemes\n\
       (fence/delay/dom) charge most of their stall cycles to instructions\n\
       with no dependency on the unresolved branch."
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("audit", audit_exp);
  ]

(* BENCH_matrix.json: the run's trajectory artifact — per-cell wall clock,
   source (Engine's "sim"/"cache", or "remote-" + the daemon's) and the
   one "cell" host phase, plus totals.
   Timing-only by design: the deterministic results live in --json. *)
let write_bench_matrix ~total_wall_s =
  let cells =
    Hashtbl.fold (fun key c acc -> (key, c) :: acc) matrix []
    |> List.sort (fun ((c1, w1, p1), _) ((c2, w2, p2), _) ->
           compare (w1, p1, c1) (w2, p2, c2))
  in
  let entry ((config, w, p), c) =
    Json.Obj
      [
        ("workload", Json.String w);
        ("policy", Json.String p);
        ("config", Json.String (Run_cache.config_key config));
        ("default_config", Json.Bool (config = Config.default));
        ("cycles", Json.Int c.stats.Sim_stats.cycles);
        ("wall_s", Json.Float c.wall_s);
        ("source", Json.String c.source);
        ("host", c.host);
      ]
  in
  let simulated = List.filter (fun (_, c) -> c.source = "sim") cells in
  let artifact =
    Schema.tag
      [
        ("schema", Json.String "levioso-bench-matrix/v1");
        ("jobs", Json.Int !jobs);
        ("cache", Json.Bool (!disk <> None));
        ( "remote",
          match !remote with
          | None -> Json.Null
          | Some socket -> Json.String socket );
        ("quick", Json.Bool !quick);
        ("audit", Json.Bool !audit);
        ( "sample",
          match !sample with
          | None -> Json.String "off"
          | Some sp -> Json.String (Sampler.spec_to_string sp) );
        ("cells", Json.Int (List.length cells));
        ("simulated", Json.Int (List.length simulated));
        ("replayed", Json.Int (List.length cells - List.length simulated));
        ( "cell_wall_s",
          Json.Float (List.fold_left (fun a (_, c) -> a +. c.wall_s) 0.0 cells)
        );
        ("total_wall_s", Json.Float total_wall_s);
        ("matrix", Json.List (List.map entry cells));
      ]
  in
  let oc = open_out "BENCH_matrix.json" in
  Json.to_channel oc artifact;
  output_char oc '\n';
  close_out oc

let main quick_ only json_out jobs_ cache cache_dir audit_ sample_ cache_prune
    remote_ make_monitor list =
  let use_cache_ = List.nth cache (List.length cache - 1) in
  if list then begin
    List.iter (fun (id, _) -> print_endline id) experiments;
    `Ok ()
  end
  else
    match cache_prune with
    | Some days ->
      (* store maintenance mode: prune and exit, running nothing *)
      let cache = Run_cache.create ~dir:cache_dir () in
      let removed = Run_cache.prune cache ~max_age_days:days in
      Printf.printf
        "cache-prune: removed %d entries older than %d days from %s\n" removed
        days cache_dir;
      `Ok ()
    | None when sample_ <> None && audit_ ->
      (* the two-tier engine has no per-event audit stream to record *)
      `Error (true, "--sample cannot be combined with --audit")
    | None -> (
      (* an output file that cannot be written ends the run with one
         line naming it and exit 1, before any cell runs *)
      try
      let json_out = Option.map (fun file -> (file, open_out file)) json_out in
      quick := quick_;
      jobs := jobs_;
      use_cache := use_cache_;
      audit := audit_;
      sample := sample_;
      remote := remote_;
      (* With --remote, caching is the daemon's business (gated per batch
         by --no-cache); a local store would never be consulted, nor
         would it be for audited or sampled cells. *)
      if use_cache_ && remote_ = None && (not audit_) && sample_ = None then begin
        Levioso_telemetry.Files.mkdir_p cache_dir;
        disk := Some (Run_cache.create ~dir:cache_dir ())
      end;
      let t_start = Unix.gettimeofday () in
      let ids =
        List.filter (fun id -> only = [] || List.mem id only) (List.map fst experiments)
      in
      (* Fill the matrix — on the domain pool, or via one batched daemon
         submission with --remote — before any figure prints; the figures
         then read memoized cells in deterministic order. *)
      prefetch_matrix ~monitor:(make_monitor ~label:"bench" ()) ids;
      List.iter
        (fun id ->
          experiment := id;
          List.assoc id experiments ())
        ids;
      (* every default-config cell, with its stall breakdown, through the
         same serializer levioso_sim --json uses *)
      Option.iter
        (fun (file, oc) ->
          let cells =
            Hashtbl.fold
              (fun (config, w, p) c acc ->
                if config = Config.default then ((w, p), c.summary) :: acc
                else acc)
              matrix []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.map snd
          in
          Json.to_channel oc (Summary.runs cells);
          output_char oc '\n';
          close_out oc;
          Printf.printf "\nwrote %d run summaries to %s\n" (List.length cells)
            file)
        json_out;
      write_bench_matrix ~total_wall_s:(Unix.gettimeofday () -. t_start);
      `Ok ()
      with Sys_error msg -> Cli.runtime_error ~prog:"bench" msg)

open Cmdliner

let cmd =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let some name docv doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let quick = flag "quick" "Run every figure on every other suite workload." in
  let only =
    Arg.(
      value
      & opt_all (enum (List.map (fun (id, _) -> (id, id)) experiments)) []
      & info [ "only" ] ~docv:"ID"
          ~doc:"Run only experiment $(docv) (repeatable; see --list).")
  in
  let json_out =
    some "json" "FILE" "Write every default-config run summary to $(docv)."
  in
  let jobs =
    Cli.jobs
      ~doc:
        "Simulate the matrix on $(docv) domains; 0 (the default) uses every \
         core.  Results are bit-identical to -j 1."
  in
  let cache =
    Arg.(
      value
      & vflag_all [ true ]
          [
            (true, info [ "cache" ] ~doc:"Use the result store (the default).");
            ( false,
              info [ "no-cache" ]
                ~doc:"Simulate every cell; the last of --cache/--no-cache wins."
            );
          ])
  in
  let cache_dir =
    Arg.(
      value
      & opt string (Filename.concat "bench" ".cache")
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Directory of the result store.")
  in
  let cache_prune =
    Arg.(
      value
      & opt (some Cli.non_negative) None
      & info [ "cache-prune" ] ~docv:"DAYS"
          ~doc:
            "Delete store entries older than $(docv) days, then exit \
             without running anything.")
  in
  let list = flag "list" "Print the experiment ids and exit." in
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the evaluation's tables and figures"
       ~exits:
         (Cli.exits
            ~doc:
              "when an output file cannot be written or the --remote \
               daemon fails."))
    Term.(
      ret
        (const main $ quick $ only $ json_out $ jobs $ cache $ cache_dir
       $ Cli.audit $ Cli.sample $ cache_prune $ Cli.remote $ Cli.monitor $ list))

let () = exit (Cmd.eval cmd)
