(* The shared command-line terms, evaluated on argument vectors. *)

module Cli = Levioso_cli.Cli
module Config = Levioso_uarch.Config
module Registry = Levioso_core.Registry
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Parallel = Levioso_util.Parallel
open Cmdliner

let matrix =
  Cmd.v (Cmd.info "t")
    Term.(
      const (fun ws ps config sample jobs -> (ws, ps, config, sample, jobs))
      $ Cli.workloads $ Cli.policies $ Cli.config $ Cli.sample
      $ Cli.jobs ~doc:"")

let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore

let eval args =
  Cmd.eval_value ~err:quiet ~help:quiet
    ~argv:(Array.of_list ("t" :: args))
    matrix

let parsed args =
  match eval args with
  | Ok (`Ok v) -> v
  | _ -> Alcotest.failf "%s: did not parse" (String.concat " " args)

let names ws = List.map (fun (w : Workload.t) -> w.Workload.name) ws

let test_defaults () =
  let ws, ps, config, sample, jobs = parsed [] in
  Alcotest.(check (list string)) "workloads" (names Suite.all) (names ws);
  Alcotest.(check (list string)) "policies" Registry.names ps;
  Alcotest.(check bool) "config" true (config = Config.default);
  Alcotest.(check bool) "no sample" true (sample = None);
  Alcotest.(check int) "-j 0 is every core" (Parallel.default_size ()) jobs;
  let _, _, _, _, jobs = parsed [ "-j"; "0" ] in
  Alcotest.(check int) "explicit -j 0" (Parallel.default_size ()) jobs

let test_values () =
  let ws, ps, config, sample, jobs =
    parsed
      [
        "-w"; "stream"; "-w"; "stream-xl"; "-p"; "levioso"; "-p"; "unsafe";
        "--rob"; "96"; "--predictor"; "gshare"; "--budget"; "4"; "--sample";
        "1000:500:4"; "-j"; "3";
      ]
  in
  Alcotest.(check (list string))
    "workloads" [ "stream"; "stream-xl" ] (names ws);
  Alcotest.(check (list string)) "policies" [ "levioso"; "unsafe" ] ps;
  Alcotest.(check bool) "config" true
    (config
    = {
        Config.default with
        Config.rob_size = 96;
        predictor = Config.Gshare;
        depset_budget = 4;
      });
  Alcotest.(check bool) "sample" true
    (sample
    = Some { Levioso_uarch.Sampler.interval = 1000; warmup = 500; period = 4 });
  Alcotest.(check int) "jobs" 3 jobs

let test_bad_values () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      match eval args with
      | Error `Parse -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error (`Term | `Exn) -> Alcotest.failf "%s: not a parse error" what)
    [
      [ "-w"; "nosuch" ];
      [ "-p"; "nosuch" ];
      [ "--rob"; "0" ];
      [ "--budget"; "0" ];
      [ "--predictor"; "oracle" ];
      [ "--sample"; "0:1" ];
      [ "-j"; "x" ];
      [ "--jobs=-1" ];
    ]

(* A value out of a converter's range is a parse error naming the flag;
   an in-range one parses to itself. *)
let test_value_converters () =
  let run c default arg =
    let buf = Buffer.create 64 in
    let err = Format.formatter_of_buffer buf in
    let term = Arg.(value & opt c default & info [ "xx" ]) in
    let r =
      Cmd.eval_value ~err ~help:quiet
        ~argv:[| "t"; "--xx=" ^ arg |]
        (Cmd.v (Cmd.info "t") term)
    in
    Format.pp_print_flush err ();
    match r with
    | Ok (`Ok v) -> Ok v
    | Error `Parse -> Error (Buffer.contents buf)
    | _ -> Alcotest.failf "--xx=%s: neither a value nor a parse error" arg
  in
  let names_flag msg =
    let n = String.length msg in
    let rec go i = i + 6 <= n && (String.sub msg i 6 = "'--xx'" || go (i + 1)) in
    go 0
  in
  let rejected conv default arg =
    match run conv default arg with
    | Ok _ -> Alcotest.failf "--xx=%s accepted" arg
    | Error msg ->
      Alcotest.(check bool) ("--xx=" ^ arg ^ " names the flag") true
        (names_flag msg)
  in
  Alcotest.(check (result int string)) "0 is non-negative" (Ok 0)
    (run Cli.non_negative 1 "0");
  List.iter (rejected Cli.non_negative 0) [ "-1"; "x" ];
  Alcotest.(check (result (float 0.) string)) "0.25 is positive" (Ok 0.25)
    (run Cli.positive_float 1. "0.25");
  List.iter (rejected Cli.positive_float 1.) [ "0"; "-2"; "nan"; "inf"; "x" ]

let test_overhead_table () =
  let table =
    Cli.overhead_table ~policies:[ "levioso"; "unsafe" ] ~workloads:[ "a"; "b" ]
      [ 150; 100; 100; -1 ]
  in
  let has s =
    let n = String.length s in
    let rec go i =
      i + n <= String.length table && (String.sub table i n = s || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "overhead against unsafe" true (has "150 (+50.0%)");
  Alcotest.(check bool) "failed baseline shows plain cycles" true
    (has "| 100 " && not (has "100 ("))

(* Run a built program ([dir/exe], relative to the test directory):
   its exit code, stdout and stderr lines. *)
let run_program ~tmp exe args =
  let out = Filename.concat tmp "stdout" and err = Filename.concat tmp "stderr" in
  let rc =
    Sys.command (Filename.quote_command ("../" ^ exe) args ~stdout:out ~stderr:err)
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let stdout = read out and stderr = read err in
  List.iter Sys.remove [ out; err ];
  (rc, stdout, List.filter (( <> ) "") (String.split_on_char '\n' stderr))

(* levioso_cc, levioso_compile, levioso_sim, bench and levioso_fuzz, run
   as programs: an input that does not read or compile, and an output
   file that cannot be written, is one stderr line naming the file, no
   stdout and exit 1, before any simulation; a bad flag is 124. *)
let test_input_errors () =
  let dir = Filename.temp_dir "levioso_cli" "" in
  let file name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let bad_lev = file "bad.lev" "x = ;\n" and bad_s = file "bad.s" "bogus r1\n" in
  let run exe args =
    let rc, _, err = run_program ~tmp:dir ("bin/" ^ exe) args in
    (rc, err)
  in
  (* [exe] run with [args] (default: just [file]) fails on [file] *)
  let fails ?args exe file =
    let args = Option.value args ~default:[ file ] in
    let where = String.concat " " (exe :: args) in
    let prog =
      match Filename.basename (Filename.chop_suffix exe ".exe") with
      | "main" -> "bench"
      | p -> p
    in
    match run_program ~tmp:dir exe args with
    | 1, out, [ line ] ->
      Alcotest.(check string) (where ^ ": no stdout") "" out;
      Alcotest.(check bool)
        (where ^ ": the line names the file") true
        (String.starts_with ~prefix:(prog ^ ": " ^ file ^ ": ") line)
    | rc, _, lines ->
      Alcotest.failf "%s: exit %d with %d stderr lines: %s" where rc
        (List.length lines) (String.concat " | " lines)
  in
  let missing = Filename.concat dir "missing" in
  fails "bin/levioso_cc.exe" bad_lev;
  fails "bin/levioso_cc.exe" dir;
  fails "bin/levioso_cc.exe" missing;
  fails "bin/levioso_compile.exe" bad_s;
  fails "bin/levioso_compile.exe" dir;
  fails "bin/levioso_compile.exe" missing;
  fails "bin/levioso_fuzz.exe" missing ~args:[ "--replay"; missing ];
  let unwritable = Filename.concat missing "out" in
  List.iter
    (fun flag ->
      fails "bin/levioso_sim.exe" unwritable
        ~args:[ "-w"; "stream"; "-p"; "unsafe"; "-j"; "1"; flag; unwritable ])
    [ "--trace-out"; "--metrics" ];
  (* outputs written after the run are opened before it *)
  let out name = Filename.concat missing name in
  fails "bin/levioso_sim.exe" (out "t.kanata")
    ~args:
      [ "-w"; "stream"; "-p"; "levioso"; "-v"; "-j"; "1"; "--timeline"; out "t.kanata" ];
  List.iter
    (fun name ->
      fails "bin/levioso_sim.exe" (out name)
        ~args:
          [ "-w"; "spectre-v1"; "-p"; "unsafe"; "-v"; "-j"; "1"; "--leak-trace"; out name ])
    [ "l.txt"; "l.json" ];
  fails "bench/main.exe" (out "b.json")
    ~args:
      [ "--quick"; "--only"; "fig3"; "--no-cache"; "-j"; "1"; "--json"; out "b.json" ];
  (match run_program ~tmp:dir "bench/main.exe" [ "--only"; "nosuch" ] with
  | 124, "", first :: _ ->
    Alcotest.(check bool) "bench --only nosuch names the id" true
      (String.starts_with ~prefix:"bench: option '--only': invalid value 'nosuch'"
         first)
  | rc, _, _ -> Alcotest.failf "bench --only nosuch: exit %d, not 124" rc);
  let empty = Filename.concat dir "empty" in
  Sys.mkdir empty 0o755;
  Alcotest.(check (pair int (list string)))
    "an empty corpus replays nothing" (0, [ "no .levir files under " ^ empty ])
    (run "levioso_fuzz.exe" [ "--replay"; empty ]);
  Sys.rmdir empty;
  (* a replayed entry whose recorded verdict no longer holds is a failed
     run, not a bad flag: exit 1 and one stderr line naming the corpus *)
  let flipped = Filename.concat dir "flipped" in
  Sys.mkdir flipped 0o755;
  let entry = Filename.concat flipped "arch-diff-seed1001.levir" in
  In_channel.with_open_bin "../fuzz/corpus/arch-diff-seed1001.levir" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.map (fun l -> if l = "; verdict: pass" then "; verdict: fail" else l)
  |> String.concat "\n"
  |> fun text -> Out_channel.with_open_bin entry (fun oc -> output_string oc text);
  (match run_program ~tmp:dir "bin/levioso_fuzz.exe" [ "--replay"; flipped ] with
  | 1, out, [ line ] ->
    Alcotest.(check string) "a flipped entry: the line names the corpus"
      ("levioso_fuzz: " ^ flipped ^ ": 1 of 1 corpus entries disagreed")
      line;
    Alcotest.(check bool) "a flipped entry: stdout names the entry" true
      (String.starts_with ~prefix:("FAIL " ^ entry ^ ": ") out)
  | rc, _, lines ->
    Alcotest.failf "levioso_fuzz --replay of a flipped entry: exit %d: %s" rc
      (String.concat " | " lines));
  Sys.remove entry;
  Sys.rmdir flipped;
  let good_lev = file "good.lev" "fn main() {\n  store(64, 7);\n}\n" in
  Alcotest.(check (pair int (list string))) "a good program exits 0" (0, [])
    (run "levioso_cc.exe" [ good_lev; "--run" ]);
  Alcotest.(check (pair int (list string))) "a good workload exits 0" (0, [])
    (run "levioso_compile.exe" [ "-s"; "-w"; "stream" ]);
  List.iter Sys.remove [ bad_lev; bad_s; good_lev ];
  Sys.rmdir dir

(* Every levioso_sim cell runs through Engine.run_cell, so its --json is
   the same bytes on every run and equals the engine's own summaries. *)
let test_sim_json_one_path () =
  let dir = Filename.temp_dir "levioso_cli" "" in
  let args = [ "-w"; "stream"; "-p"; "unsafe"; "-p"; "levioso"; "--json" ] in
  let json () =
    match run_program ~tmp:dir "bin/levioso_sim.exe" args with
    | 0, out, [] -> out
    | rc, _, err ->
      Alcotest.failf "levioso_sim --json: exit %d: %s" rc (String.concat " | " err)
  in
  let first = json () in
  Alcotest.(check string) "two runs, one byte string" first (json ());
  let engine =
    List.map
      (fun policy ->
        (Levioso_serve.Engine.run_cell
           {
             Levioso_serve.Protocol.config = Config.default;
             workload = "stream";
             policy;
             audit = false;
             sample = None;
           })
          .Levioso_serve.Engine.summary)
      [ "unsafe"; "levioso" ]
  in
  Alcotest.(check string) "Summary.runs of Engine.run_cell"
    (Levioso_telemetry.Json.to_string (Levioso_uarch.Summary.runs engine) ^ "\n")
    first;
  Sys.rmdir dir

(* The -v report of an audited exact cell and of a sampled one, pinned
   byte for byte (the report is rendered from the cell's summary). *)
let test_verbose_pinned () =
  let dir = Filename.temp_dir "levioso_cli" "" in
  List.iter
    (fun (golden, extra) ->
      let args = [ "-w"; "stream"; "-p"; "levioso"; "-v"; "-j"; "1" ] @ extra in
      match run_program ~tmp:dir "bin/levioso_sim.exe" args with
      | 0, out, [] ->
        Alcotest.(check string) golden
          (In_channel.with_open_bin golden In_channel.input_all)
          out
      | rc, _, err ->
        Alcotest.failf "%s: exit %d: %s" golden rc (String.concat " | " err))
    [
      ("golden_verbose_audit.txt", [ "--audit" ]);
      ("golden_verbose_sampled.txt", [ "--sample"; "1000:500:4" ]);
    ];
  Sys.rmdir dir

let suite =
  ( "cli",
    [
      Alcotest.test_case "defaults" `Quick test_defaults;
      Alcotest.test_case "flag values" `Quick test_values;
      Alcotest.test_case "bad values are parse errors" `Quick test_bad_values;
      Alcotest.test_case "value converters" `Quick test_value_converters;
      Alcotest.test_case "overhead table" `Quick test_overhead_table;
      Alcotest.test_case "input errors exit 1" `Quick test_input_errors;
      Alcotest.test_case "levioso_sim --json is one path" `Quick
        test_sim_json_one_path;
      Alcotest.test_case "levioso_sim -v text pinned" `Quick test_verbose_pinned;
    ] )
