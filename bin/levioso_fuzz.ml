(* levioso_fuzz: the fuzzing / differential-testing front end.

   Examples:
     levioso_fuzz                              # 500 iterations, all oracles
     levioso_fuzz --seed 7 --iters 2000 -j 4   # parallel, still deterministic
     levioso_fuzz --oracle noninterference --time-budget 30
     levioso_fuzz --json --no-persist          # machine-readable, no corpus
     levioso_fuzz --replay fuzz/corpus         # regression-check the corpus
     levioso_fuzz --iters 50000 --progress     # live status line on stderr
     levioso_fuzz --list-oracles

   Iteration seeds derive from --seed by a SplitMix64 finalizer, and
   results fold into counters in input order, so any -j N run is
   bit-identical to -j 1 (given --iters rather than --time-budget).
   Failures are shrunk greedily and persisted under fuzz/corpus/ as
   self-describing .levir listings; exit status is 1 when any oracle
   failed (or any replayed corpus entry disagreed), 0 otherwise. *)

module Oracle = Levioso_fuzz.Oracle
module Campaign = Levioso_fuzz.Campaign
module Corpus = Levioso_fuzz.Corpus
module Json = Levioso_telemetry.Json
module Monitor = Levioso_telemetry.Monitor
module Cli = Levioso_cli.Cli

let list_oracles () =
  List.iter
    (fun (o : Oracle.t) ->
      Printf.printf "%-18s %s\n" o.Oracle.name o.Oracle.describe)
    Oracle.all;
  `Ok ()

let replay_corpus ~config ~json dir =
  (* a missing corpus is a bad input; an empty one replays nothing *)
  (try ignore (Sys.readdir dir)
   with Sys_error msg -> Cli.runtime_error ~prog:"levioso_fuzz" msg);
  let files = Corpus.files dir in
  if files = [] then begin
    Printf.eprintf "no .levir files under %s\n" dir;
    `Ok ()
  end
  else begin
    let results =
      List.map
        (fun path ->
          match Corpus.load path with
          | Error msg -> (path, None, Error msg)
          | Ok entry -> (path, entry.Corpus.leak, Corpus.replay ~config entry))
        files
    in
    let bad = List.filter (fun (_, _, r) -> Result.is_error r) results in
    if json then
      Json.to_channel stdout
        (Json.Obj
           [
             ("replayed", Json.Int (List.length results));
             ("disagreements", Json.Int (List.length bad));
             ( "results",
               Json.List
                 (List.map
                    (fun (path, leak, r) ->
                      Json.Obj
                        [
                          ("path", Json.String path);
                          ( "ok",
                            match r with
                            | Ok () -> Json.Bool true
                            | Error msg -> Json.String msg );
                          ( "leak",
                            match leak with
                            | Some chain -> Json.String chain
                            | None -> Json.Null );
                        ])
                    results) );
           ])
    else
      List.iter
        (fun (path, leak, r) ->
          (match r with
          | Ok () -> Printf.printf "ok   %s\n" path
          | Error msg -> Printf.printf "FAIL %s: %s\n" path msg);
          (* recorded leak provenance rides along with the repro *)
          match leak with
          | Some chain ->
            String.split_on_char '\n' (String.trim chain)
            |> List.iter (fun l -> Printf.printf "     | %s\n" l)
          | None -> ())
        results;
    if bad = [] then `Ok ()
    else
      (* a failed run, like a bad input, exits 1; 124 is for bad flags *)
      Cli.runtime_error ~prog:"levioso_fuzz"
        (Printf.sprintf "%s: %d of %d corpus entries disagreed" dir (List.length bad)
           (List.length results))
  end

let record_anchors ~config ~dir specs =
  let record spec =
    match String.split_on_char ':' spec with
    | [ name; seed_str ] -> (
      match (Oracle.find name, int_of_string_opt seed_str) with
      | Some oracle, Some seed ->
        let outcome = oracle.Oracle.run ~config ~seed in
        let verdict, detail =
          match outcome.Oracle.verdict with
          | Oracle.Pass -> ("pass", "regression anchor")
          | Oracle.Fail f -> ("fail", f.Oracle.detail)
        in
        let program, source = Oracle.input_of oracle ~seed in
        let path =
          Corpus.save ~dir
            {
              Corpus.oracle = name;
              seed;
              verdict;
              detail;
              source;
              leak = None;
              program;
            }
        in
        Printf.printf "recorded %s (%s)\n" path verdict;
        Ok ()
      | _ ->
        Error (Printf.sprintf "bad --record %S (want ORACLE:SEED)" spec))
    | _ -> Error (Printf.sprintf "bad --record %S (want ORACLE:SEED)" spec)
  in
  let errors = List.filter_map (fun s -> Result.fold ~ok:(fun () -> None) ~error:Option.some (record s)) specs in
  match errors with
  | [] -> `Ok ()
  | e :: _ -> `Error (false, e)

let main seed iters time_budget jobs oracle_names corpus_dir no_persist
    shrink_budget max_failures json replay record list monitor =
  if list then list_oracles ()
  else
    let config = Levioso_fuzz.Gen.default_config in
    if record <> [] then record_anchors ~config ~dir:corpus_dir record
    else
    match replay with
    | Some dir -> replay_corpus ~config ~json dir
    | None -> (
      let unknown =
        List.filter (fun n -> Oracle.find n = None) oracle_names
      in
      if unknown <> [] then
        `Error
          ( false,
            Printf.sprintf "unknown oracle(s): %s (try --list-oracles)"
              (String.concat ", " unknown) )
      else if iters = 0 && time_budget = None then
        `Error (false, "--iters 0 needs a --time-budget")
      else begin
        let oracles =
          match oracle_names with
          | [] -> Oracle.all
          | names -> List.filter_map Oracle.find names
        in
        (* the monitor hangs off the campaign's chunk-boundary callback;
           it is observational only, so the report (and exit status) is
           the same with or without it *)
        let monitor = monitor ~label:"levioso_fuzz" () in
        if iters > 0 then
          Option.iter (fun m -> Monitor.set_total m iters) monitor;
        let on_progress =
          Option.map
            (fun m ~executed ~failures ->
              Monitor.progress m ~failures ~done_:executed ())
            monitor
        in
        let options =
          {
            Campaign.default_options with
            Campaign.seed;
            iters;
            time_budget;
            jobs;
            oracles;
            corpus_dir = (if no_persist then None else Some corpus_dir);
            shrink_budget;
            max_failures =
              (if max_failures <= 0 then None else Some max_failures);
            on_progress;
          }
        in
        let report =
          (* an output file that cannot be written ends the campaign
             with one line naming it and exit 1 *)
          try
            let report = Campaign.run options in
            Option.iter Monitor.close monitor;
            report
          with Sys_error msg -> Cli.runtime_error ~prog:"levioso_fuzz" msg
        in
        if json then Json.to_channel stdout (Campaign.to_json report)
        else Campaign.print stdout report;
        if report.Campaign.failures = [] then `Ok ()
        else
          Cli.runtime_error ~prog:"levioso_fuzz"
            (Printf.sprintf "%d oracle failure(s)"
               (List.length report.Campaign.failures))
      end)

open Cmdliner

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Base seed; every iteration derives its own seed from it.")

let iters_arg =
  Arg.(
    value & opt int 500
    & info [ "iters" ] ~docv:"N"
        ~doc:
          "Total iterations, spread round-robin over the selected oracles; \
           0 means unlimited (requires --time-budget).")

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Stop at the first chunk boundary past $(docv) seconds of wall \
           clock (iteration count then depends on machine speed).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run iterations on $(docv) worker domains; output is \
           bit-identical to -j 1.")

let oracle_arg =
  let doc =
    "Oracle to run (repeatable; default all). Known: "
    ^ String.concat ", " Oracle.names
  in
  Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)

let corpus_arg =
  Arg.(
    value & opt string Corpus.default_dir
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory for shrunk failure reproductions.")

let no_persist_arg =
  Arg.(
    value & flag
    & info [ "no-persist" ] ~doc:"Do not write corpus files on failure.")

let shrink_budget_arg =
  Arg.(
    value & opt int 2000
    & info [ "shrink-budget" ] ~docv:"N"
        ~doc:"Oracle re-evaluations the shrinker may spend per failure.")

let max_failures_arg =
  Arg.(
    value & opt int 20
    & info [ "max-failures" ] ~docv:"N"
        ~doc:
          "Stop early once $(docv) failures have been collected (each \
           failure costs a shrink run); 0 disables the cap.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the report as JSON (stable across -j settings: no \
           timing, no job count).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"DIR"
        ~doc:
          "Instead of fuzzing, reload every .levir file under $(docv) and \
           check that each recorded verdict still holds.")

let record_arg =
  Arg.(
    value & opt_all string []
    & info [ "record" ] ~docv:"ORACLE:SEED"
        ~doc:
          "Run the named oracle at $(docv) once and save its input and \
           verdict to the corpus as a regression anchor (repeatable).")

let list_arg =
  Arg.(
    value & flag & info [ "list-oracles" ] ~doc:"List oracles and exit.")

let cmd =
  let doc = "fuzz the simulator: differential and security oracles" in
  let info =
    Cmd.info "levioso_fuzz" ~doc
      ~exits:
        (Cli.exits
           ~doc:
             "when an oracle fails, a replayed corpus entry disagrees, the \
              --replay directory is missing, or an output file cannot be \
              written.")
  in
  Cmd.v info
    Term.(
      ret
        (const main $ seed_arg $ iters_arg $ time_budget_arg $ jobs_arg
       $ oracle_arg $ corpus_arg $ no_persist_arg $ shrink_budget_arg
       $ max_failures_arg $ json_arg $ replay_arg $ record_arg $ list_arg
       $ Cli.monitor))

let () = exit (Cmd.eval cmd)
