module Config = Levioso_uarch.Config
module Sim_stats = Levioso_uarch.Sim_stats

let test_default_valid () =
  Alcotest.(check (result unit string)) "default" (Ok ()) (Config.validate Config.default)

let reject what config =
  Alcotest.(check bool) (what ^ " rejected") true (Result.is_error (Config.validate config))

let test_validation_rejects () =
  reject "rob 1" { Config.default with Config.rob_size = 1 };
  reject "zero width" { Config.default with Config.fetch_width = 0 };
  reject "non-pow2 memory" { Config.default with Config.mem_words = 1000 };
  reject "non-pow2 sets"
    { Config.default with Config.l1 = { Config.default.Config.l1 with Config.sets = 3 } };
  reject "mismatched lines"
    { Config.default with
      Config.l2 = { Config.default.Config.l2 with Config.line_words = 16 } };
  reject "zero budget" { Config.default with Config.depset_budget = 0 };
  reject "zero mshrs" { Config.default with Config.mshrs = 0 };
  reject "zero ways"
    { Config.default with Config.l2 = { Config.default.Config.l2 with Config.ways = 0 } };
  reject "one predictor bit" { Config.default with Config.predictor_bits = 1 }

(* One field one step past its bound, from the largest valid config: the
   error names the field. *)
let test_upper_bounds () =
  let l = Config.largest in
  Alcotest.(check (result unit string)) "largest" (Ok ()) (Config.validate l);
  let geometry f = { l with Config.l1 = f l.Config.l1; l2 = f l.Config.l2 } in
  let g = l.Config.l1 in
  List.iter
    (fun (field, config) ->
      match Config.validate config with
      | Ok () -> Alcotest.failf "%s past its bound accepted" field
      | Error msg ->
        let n = String.length field in
        let rec names i =
          i + n <= String.length msg && (String.sub msg i n = field || names (i + 1))
        in
        Alcotest.(check bool) (field ^ ": " ^ msg) true (names 0))
    [
      ("rob_size", { l with Config.rob_size = l.Config.rob_size + 1 });
      ("fetch_width", { l with Config.fetch_width = l.Config.fetch_width + 1 });
      ("issue_width", { l with Config.issue_width = l.Config.issue_width + 1 });
      ("commit_width", { l with Config.commit_width = l.Config.commit_width + 1 });
      ("alu_latency", { l with Config.alu_latency = l.Config.alu_latency + 1 });
      ("mul_latency", { l with Config.mul_latency = l.Config.mul_latency + 1 });
      ("div_latency", { l with Config.div_latency = l.Config.div_latency + 1 });
      ( "branch_exec_latency",
        { l with Config.branch_exec_latency = l.Config.branch_exec_latency + 1 } );
      ( "forward_latency",
        { l with Config.forward_latency = l.Config.forward_latency + 1 } );
      ( "redirect_penalty",
        { l with Config.redirect_penalty = l.Config.redirect_penalty + 1 } );
      ( "memory_latency",
        { l with Config.memory_latency = l.Config.memory_latency + 1 } );
      ( "l1.hit_latency",
        { l with Config.l1 = { g with Config.hit_latency = g.Config.hit_latency + 1 } } );
      ( "l2.hit_latency",
        { l with Config.l2 = { g with Config.hit_latency = g.Config.hit_latency + 1 } } );
      ("mem_words", { l with Config.mem_words = 2 * l.Config.mem_words });
      ("l1.sets", { l with Config.l1 = { g with Config.sets = 2 * g.Config.sets } });
      ("l2.sets", { l with Config.l2 = { g with Config.sets = 2 * g.Config.sets } });
      ("l1.ways", { l with Config.l1 = { g with Config.ways = g.Config.ways + 1 } });
      ("l2.ways", { l with Config.l2 = { g with Config.ways = g.Config.ways + 1 } });
      ( "l1.line_words",
        geometry (fun g -> { g with Config.line_words = 2 * g.Config.line_words }) );
      ("mshrs", { l with Config.mshrs = l.Config.mshrs + 1 });
      ("depset_budget", { l with Config.depset_budget = l.Config.depset_budget + 1 });
      ( "predictor_bits",
        { l with Config.predictor_bits = l.Config.predictor_bits + 1 } );
    ]

(* The bounds exist to cap what [Pipeline.create] allocates for the
   config: config.mli states the ceiling, 10M words, under every
   policy. *)
let test_create_ceiling () =
  let module Pipeline = Levioso_uarch.Pipeline in
  let module Hostprof = Levioso_telemetry.Hostprof in
  let program = [| Levioso_ir.Ir.Halt |] in
  List.iter
    (fun policy ->
      let _, span =
        Hostprof.measure (fun () ->
            Pipeline.create Config.largest
              ~policy:(Levioso_core.Registry.find_exn policy) program)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words" policy (Hostprof.alloc_words span))
        true
        (Hostprof.alloc_words span < 10e6))
    Levioso_core.Registry.names

let test_to_rows_covers_fields () =
  let rows = Config.to_rows Config.default in
  Alcotest.(check bool) "at least 10 rows" true (List.length rows >= 10);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) (k ^ " non-empty") true (String.length v > 0))
    rows

let test_predictor_names () =
  Alcotest.(check string) "always" "always-taken"
    (Config.predictor_kind_to_string Config.Always_taken);
  Alcotest.(check string) "bimodal" "bimodal"
    (Config.predictor_kind_to_string Config.Bimodal);
  Alcotest.(check string) "gshare" "gshare"
    (Config.predictor_kind_to_string Config.Gshare)

let test_stats_derivations () =
  let s = Sim_stats.create () in
  Alcotest.(check (float 1e-9)) "ipc of empty" 0.0 (Sim_stats.ipc s);
  s.Sim_stats.cycles <- 100;
  s.Sim_stats.committed <- 250;
  Alcotest.(check (float 1e-9)) "ipc" 2.5 (Sim_stats.ipc s);
  s.Sim_stats.mispredicts <- 5;
  Alcotest.(check (float 1e-9)) "mpki" 20.0 (Sim_stats.mpki s)

let test_wrong_path_transmit_cap () =
  let s = Sim_stats.create () in
  for i = 1 to 60_000 do
    Sim_stats.record_wrong_path_transmit s ~branch_pc:i ~pc:i
  done;
  Alcotest.(check int) "capped" 50_000 (List.length s.Sim_stats.wrong_path_transmits);
  Alcotest.(check int) "dropped counted" 10_000 s.Sim_stats.wrong_path_transmits_dropped

let test_stats_rows () =
  let s = Sim_stats.create () in
  Alcotest.(check bool) "rows render" true (List.length (Sim_stats.to_rows s) >= 10)

let suite =
  ( "config",
    [
      Alcotest.test_case "default valid" `Quick test_default_valid;
      Alcotest.test_case "validation rejects" `Quick test_validation_rejects;
      Alcotest.test_case "upper bounds" `Quick test_upper_bounds;
      Alcotest.test_case "create stays under the ceiling" `Quick
        test_create_ceiling;
      Alcotest.test_case "to_rows" `Quick test_to_rows_covers_fields;
      Alcotest.test_case "predictor names" `Quick test_predictor_names;
      Alcotest.test_case "stats derivations" `Quick test_stats_derivations;
      Alcotest.test_case "transmit record cap" `Quick test_wrong_path_transmit_cap;
      Alcotest.test_case "stats rows" `Quick test_stats_rows;
    ] )
