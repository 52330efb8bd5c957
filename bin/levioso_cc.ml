(* levioso_cc: the compiler driver.

   Reads a .lev source file, any other file as assembly, or a workload
   (-w), runs the Levioso annotation pass and prints the annotated
   disassembly (-s skips it), the compiler statistics (bench table3) and
   the encoded size; --run simulates the program under a defense instead:

     levioso_cc prog.lev                 # annotated disassembly + statistics
     levioso_cc -s -w treewalk           # a workload's statistics
     levioso_cc prog.lev --run -p levioso --watch 64 --watch 65 *)

module Parser = Levioso_ir.Parser
module Encoding = Levioso_ir.Encoding
module Compiler = Levioso_lang.Compiler
module Annotation = Levioso_core.Annotation
module Registry = Levioso_core.Registry
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Workload = Levioso_workload.Workload
module Opt = Levioso_opt.Opt
module Cli = Levioso_cli.Cli

(* The program, its name and its memory image.  A missing or doubled
   input is a usage error (124); a file that does not read or compile is
   a runtime failure (1). *)
let load workload file =
  match (workload, file) with
  | Some w, None ->
    Ok (w.Workload.name, w.Workload.program, Some w.Workload.mem_init)
  | None, Some path -> (
    let translate =
      if Filename.check_suffix path ".lev" then Compiler.compile
      else Parser.parse
    in
    let translate src = Result.map_error (Printf.sprintf "%s: %s" path) (translate src) in
    match Result.bind (Cli.read_input path) translate with
    | Ok program -> Ok (path, program, None)
    | Error msg -> Cli.runtime_error ~prog:"levioso_cc" msg)
  | Some _, Some _ -> Error "pass either --workload or a file, not both"
  | None, None -> Error "pass a source file or --workload NAME"

let print_compiled name program stats_only =
  let annotation = Annotation.analyze program in
  Printf.printf "; %s: %d instructions\n" name (Array.length program);
  if not stats_only then print_string (Annotation.disassemble annotation);
  Printf.printf "\n; compiler statistics\n";
  List.iter
    (fun (k, v) -> Printf.printf ";   %-18s %s\n" k v)
    (Annotation.stats annotation);
  (* binary encoding: prove the hints fit in the branch words *)
  let hints pc =
    match Annotation.hint_for annotation pc with
    | Some (Annotation.Reconverges_at r) -> Some r
    | Some Annotation.No_reconvergence | None -> None
  in
  match Encoding.encode ~hints program with
  | Ok words ->
    Printf.printf ";   %-18s %d bytes (8 per instruction, hints inline)\n"
      "encoded size" (8 * Array.length words)
  | Error e ->
    Printf.printf ";   %-18s pc %d: %s\n" "encoding" e.Encoding.pc
      e.Encoding.reason

let simulate name program mem_init policy watches =
  let pipe =
    Pipeline.create ?mem_init Config.default ~policy:(Registry.find_exn policy)
      program
  in
  Pipeline.run pipe;
  let stats = Pipeline.stats pipe in
  Printf.printf "%s under %s: %d cycles, %d instructions (IPC %.2f)\n" name
    policy stats.Sim_stats.cycles stats.Sim_stats.committed
    (Sim_stats.ipc stats);
  let watches = if watches = [] then [ 64 ] else watches in
  List.iter
    (fun addr -> Printf.printf "  mem[%d] = %d\n" addr (Pipeline.mem pipe).(addr))
    watches

let main workload file stats_only run policy watches optimize =
  match load workload file with
  | Error msg -> `Error (false, msg)
  | Ok (name, raw, mem_init) ->
    let program = if optimize then Opt.optimize raw else raw in
    if optimize then
      Printf.eprintf "levioso_cc: -O: %d -> %d instructions\n"
        (Array.length raw) (Array.length program);
    if run then simulate name program mem_init policy watches
    else print_compiled name program stats_only;
    `Ok ()

open Cmdliner

let workload_arg =
  Arg.(
    value
    & opt (some Cli.workload) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          ("Workload to compile instead of a file (--run gives it its own \
            memory image). Known: "
          ^ String.concat ", " (Levioso_serve.Catalog.workload_names ())))

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Lev source file (.lev) or, by any other name, assembly file.")

let stats_only_arg =
  Arg.(value & flag & info [ "s"; "stats-only" ] ~doc:"Skip the disassembly.")

let run_arg = Arg.(value & flag & info [ "run" ] ~doc:"Execute instead of printing.")

let policy_arg =
  let doc = "Defense policy for --run. Known: " ^ String.concat ", " Registry.names in
  Arg.(value & opt Cli.policy "unsafe" & info [ "p"; "policy" ] ~docv:"NAME" ~doc)

let watch_arg =
  let words = Config.default.Config.mem_words in
  let addr =
    Cli.checked_int (fun a ->
        if a >= 0 && a < words then Ok ()
        else Error (Printf.sprintf "must be in [0, %d)" words))
  in
  Arg.(
    value & opt_all addr []
    & info [ "watch" ] ~docv:"ADDR" ~doc:"Memory word to print after --run (repeatable).")

let optimize_arg =
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the IR optimizer.")

let cmd =
  let doc = "compile a program and show the Levioso reconvergence annotation" in
  Cmd.v
    (Cmd.info "levioso_cc" ~doc
       ~exits:(Cli.exits ~doc:"when the source does not read or compile."))
    Term.(
      ret
        (const main $ workload_arg $ file_arg $ stats_only_arg $ run_arg
       $ policy_arg $ watch_arg $ optimize_arg))

let () = exit (Cmd.eval cmd)
