(* The fuzzing subsystem: generators, oracles, shrinker, corpus and the
   campaign driver.  The round-trip properties run the real oracles over
   hundreds of generated programs; the corpus tests round-trip .levir
   persistence through a temp directory; and the campaign test checks the
   parallel driver is bit-identical to the serial one. *)

module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Emulator = Levioso_ir.Emulator
module Json = Levioso_telemetry.Json
module Gen = Levioso_fuzz.Gen
module Gen_lev = Levioso_fuzz.Gen_lev
module Observe = Levioso_fuzz.Observe
module Oracle = Levioso_fuzz.Oracle
module Shrink = Levioso_fuzz.Shrink
module Corpus = Levioso_fuzz.Corpus
module Campaign = Levioso_fuzz.Campaign

let config = Gen.default_config

let run_oracle (oracle : Oracle.t) seed =
  (oracle.Oracle.run ~config ~seed).Oracle.verdict

let check_oracle_over name oracle seeds () =
  List.iter
    (fun seed ->
      match run_oracle oracle seed with
      | Oracle.Pass -> ()
      | Oracle.Fail f ->
        Alcotest.failf "%s failed on seed %d: %s" name seed f.Oracle.detail)
    seeds

let seeds n = List.init n (fun i -> Campaign.iter_seed 42 i)

(* --- oracles over generated populations ------------------------------ *)

let test_roundtrip_text = check_oracle_over "roundtrip-text" Oracle.roundtrip_text (seeds 200)
let test_roundtrip_binary =
  check_oracle_over "roundtrip-binary" Oracle.roundtrip_binary (seeds 200)
let test_arch_diff = check_oracle_over "arch-diff" Oracle.arch_diff (seeds 15)
let test_lang_diff = check_oracle_over "lang-diff" Oracle.lang_diff (seeds 40)

let test_noninterference () =
  List.iter
    (fun seed ->
      let outcome = Oracle.noninterference.Oracle.run ~config ~seed in
      (match outcome.Oracle.verdict with
      | Oracle.Pass -> ()
      | Oracle.Fail f ->
        Alcotest.failf "noninterference failed on seed %d: %s" seed
          f.Oracle.detail);
      (* power: the same secret pair must be distinguishable when nothing
         defends — otherwise the pass above is vacuous *)
      match List.assoc_opt "ni_unsafe_divergence" outcome.Oracle.extras with
      | Some 1 -> ()
      | _ ->
        Alcotest.failf "seed %d: unsafe baseline did not diverge" seed)
    (seeds 10)

(* --- generator contracts --------------------------------------------- *)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        "same seed, same program" true
        (Gen.random_program seed = Gen.random_program seed);
      Alcotest.(check bool)
        "same seed, same source" true
        (Gen_lev.random_source seed = Gen_lev.random_source seed))
    (seeds 20)

let test_generated_programs_validate () =
  List.iter
    (fun seed ->
      match Ir.validate (Gen.random_program seed) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: invalid program: %s" seed msg)
    (seeds 100)

let test_ni_case_secret_slots () =
  List.iter
    (fun seed ->
      let case = Gen.ni_case seed in
      let a, b = Gen.ni_secret_pair seed case in
      Alcotest.(check int)
        "one secret per gadget" case.Gen.num_secrets
        (Array.length case.Gen.secret_addrs);
      Array.iteri
        (fun i _ ->
          if a.(i) = b.(i) then
            Alcotest.failf "seed %d: secret slot %d identical in both runs"
              seed i)
        a)
    (seeds 20)

(* --- shrinker --------------------------------------------------------- *)

let test_shrink_to_witness () =
  (* predicate: program still contains a store — the shrinker should cut
     a random program down to almost nothing else *)
  let has_store p =
    Array.exists (function Ir.Store _ -> true | _ -> false) p
  in
  let p0 = Gen.random_program 7 in
  if not (has_store p0) then Alcotest.fail "seed 7 lost its store";
  let shrunk = Shrink.run ~keep:has_store p0 in
  Alcotest.(check bool) "witness survives" true (has_store shrunk);
  Alcotest.(check bool) "program got smaller" true
    (Array.length shrunk < Array.length p0);
  Alcotest.(check bool)
    "result is minimal-ish (a store and a halt)" true
    (Array.length shrunk <= 3);
  match Ir.validate shrunk with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "shrunk program invalid: %s" msg

let test_shrink_remaps_targets () =
  (* a branch jumping over a removable block must keep its (remapped)
     target: validate would reject any out-of-range pc *)
  let keep p = Array.exists (function Ir.Branch _ -> true | _ -> false) p in
  let p0 = Gen.random_program 11 in
  let shrunk = Shrink.run ~keep p0 in
  (match Ir.validate shrunk with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "remapped program invalid: %s" msg);
  Alcotest.(check bool) "branch survives" true (keep shrunk)

let test_shrink_keeps_failing_input_on_false_predicate () =
  let p0 = Gen.random_program 3 in
  let shrunk = Shrink.run ~keep:(fun _ -> false) p0 in
  Alcotest.(check bool) "unshrinkable input returned unchanged" true
    (shrunk == p0)

(* --- corpus ----------------------------------------------------------- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let with_temp_dir f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "levioso_fuzz_test" in
  let rec cleanup d =
    if Sys.file_exists d then begin
      if Sys.is_directory d then begin
        Array.iter (fun f -> cleanup (Filename.concat d f)) (Sys.readdir d);
        Sys.rmdir d
      end
      else Sys.remove d
    end
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let test_corpus_roundtrip () =
  with_temp_dir (fun dir ->
      let entry =
        {
          Corpus.oracle = "roundtrip-text";
          seed = 123;
          verdict = "pass";
          detail = "regression anchor";
          source = Some "fn main() {\n  store(1, 2);\n}";
          leak = Some "levioso-flowtrace v1\nchain 0 (2 nodes)\n  n0 pc=1";
          program = Gen.random_program 123;
        }
      in
      let path = Corpus.save ~dir entry in
      Alcotest.(check (list string)) "listed" [ path ] (Corpus.files dir);
      match Corpus.load path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded ->
        Alcotest.(check string) "oracle" entry.Corpus.oracle loaded.Corpus.oracle;
        Alcotest.(check int) "seed" entry.Corpus.seed loaded.Corpus.seed;
        Alcotest.(check string) "verdict" entry.Corpus.verdict
          loaded.Corpus.verdict;
        Alcotest.(check string) "detail" entry.Corpus.detail
          loaded.Corpus.detail;
        Alcotest.(check bool) "source survives" true
          (entry.Corpus.source = loaded.Corpus.source);
        Alcotest.(check bool) "leak survives" true
          (entry.Corpus.leak = loaded.Corpus.leak);
        Alcotest.(check bool) "program survives" true
          (entry.Corpus.program = loaded.Corpus.program))

let test_corpus_replay_detects_verdict_drift () =
  with_temp_dir (fun dir ->
      (* a passing seed recorded as "fail" must be reported as stale *)
      let entry =
        {
          Corpus.oracle = "roundtrip-text";
          seed = 5;
          verdict = "fail";
          detail = "made up";
          source = None;
          leak = None;
          program = [| Ir.Halt |];
        }
      in
      let path = Corpus.save ~dir entry in
      match Corpus.load path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded -> (
        match Corpus.replay ~config loaded with
        | Ok () -> Alcotest.fail "stale repro not detected"
        | Error _ -> ()))

let test_checked_in_corpus_replays () =
  (* the repository's own corpus must stay in agreement with the oracles;
     dune runs tests from a sandbox, so resolve relative to the source
     root when the default path is absent *)
  let dir =
    if Sys.file_exists Corpus.default_dir then Corpus.default_dir
    else Filename.concat ".." Corpus.default_dir
  in
  let files = Corpus.files dir in
  if files = [] then
    Alcotest.fail ("no checked-in corpus found under " ^ dir);
  List.iter
    (fun path ->
      match Corpus.load path with
      | Error msg -> Alcotest.fail msg
      | Ok entry -> (
        match Corpus.replay ~config entry with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" path msg))
    files

(* --- campaign --------------------------------------------------------- *)

let campaign_json ~jobs =
  (* attach a progress callback so determinism is asserted with the
     monitor hook live, not just in the silent configuration *)
  let beats = ref 0 in
  let last = ref 0 in
  let report =
    Campaign.run
      {
        Campaign.default_options with
        Campaign.seed = 9;
        iters = 40;
        jobs;
        corpus_dir = None;
        on_progress =
          Some
            (fun ~executed ~failures:_ ->
              incr beats;
              last := executed);
      }
  in
  Alcotest.(check bool) "progress callback fired" true (!beats > 0);
  Alcotest.(check int) "final heartbeat saw every iteration" 40 !last;
  Json.to_string (Campaign.to_json report)

let test_campaign_parallel_deterministic () =
  Alcotest.(check string)
    "-j 2 report equals -j 1 report" (campaign_json ~jobs:1)
    (campaign_json ~jobs:2)

let test_campaign_counts () =
  let report =
    Campaign.run
      {
        Campaign.default_options with
        Campaign.seed = 4;
        iters = 25;
        corpus_dir = None;
      }
  in
  Alcotest.(check int) "iterations" 25 report.Campaign.iterations;
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun f -> f.Campaign.detail) report.Campaign.failures);
  let total_runs =
    List.fold_left
      (fun acc (o : Oracle.t) ->
        acc
        + List.assoc (o.Oracle.name ^ "/runs") report.Campaign.counters)
      0 Oracle.all
  in
  Alcotest.(check int) "every iteration ran exactly one oracle" 25 total_runs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Both report renderings at a fixed seed and iteration count, byte for
   byte: counter names, order and values included. *)
let test_campaign_report_golden () =
  let report =
    Campaign.run
      {
        Campaign.default_options with
        Campaign.seed = 4;
        iters = 25;
        corpus_dir = None;
      }
  in
  Alcotest.(check string) "to_json" (read_file "golden_campaign.json")
    (Json.to_string (Campaign.to_json report) ^ "\n");
  let file = Filename.temp_file "levioso_campaign" ".txt" in
  Out_channel.with_open_bin file (fun oc -> Campaign.print oc report);
  let text = read_file file in
  Sys.remove file;
  Alcotest.(check string) "print" (read_file "golden_campaign.txt") text

(* --- sharpened library errors ----------------------------------------- *)

let test_emulator_rejects_bad_mem_words () =
  match Emulator.create ~mem_words:3000 [| Ir.Halt |] with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "message carries the value" true
      (contains ~affix:"3000" msg)
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_parser_raises_parse_error () =
  match Parser.parse_exn "add r1, r1" with
  | exception Parser.Parse_error msg ->
    Alcotest.(check bool) "message mentions the line" true
      (contains ~affix:"line 1" msg)
  | _ -> Alcotest.fail "expected Parse_error"

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "roundtrip-text oracle over 200 programs" `Slow
        test_roundtrip_text;
      Alcotest.test_case "roundtrip-binary oracle over 200 programs" `Slow
        test_roundtrip_binary;
      Alcotest.test_case "arch-diff oracle over generated programs" `Slow
        test_arch_diff;
      Alcotest.test_case "lang-diff oracle over generated sources" `Slow
        test_lang_diff;
      Alcotest.test_case "noninterference holds and unsafe leaks" `Slow
        test_noninterference;
      Alcotest.test_case "generators are deterministic" `Quick
        test_generator_deterministic;
      Alcotest.test_case "generated programs validate" `Quick
        test_generated_programs_validate;
      Alcotest.test_case "ni cases plant differing secrets" `Quick
        test_ni_case_secret_slots;
      Alcotest.test_case "shrinker minimizes to the witness" `Quick
        test_shrink_to_witness;
      Alcotest.test_case "shrinker keeps branch targets valid" `Quick
        test_shrink_remaps_targets;
      Alcotest.test_case "shrinker returns input on false predicate" `Quick
        test_shrink_keeps_failing_input_on_false_predicate;
      Alcotest.test_case "corpus save/load round-trips" `Quick
        test_corpus_roundtrip;
      Alcotest.test_case "corpus replay flags verdict drift" `Quick
        test_corpus_replay_detects_verdict_drift;
      Alcotest.test_case "checked-in corpus replays clean" `Slow
        test_checked_in_corpus_replays;
      Alcotest.test_case "campaign -j 2 equals -j 1" `Slow
        test_campaign_parallel_deterministic;
      Alcotest.test_case "campaign counts iterations per oracle" `Quick
        test_campaign_counts;
      Alcotest.test_case "campaign report golden" `Quick
        test_campaign_report_golden;
      Alcotest.test_case "emulator rejects non-power-of-two memory" `Quick
        test_emulator_rejects_bad_mem_words;
      Alcotest.test_case "parse_exn raises Parse_error" `Quick
        test_parser_raises_parse_error;
    ] )
