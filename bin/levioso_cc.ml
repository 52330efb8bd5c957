(* levioso_cc: the Lev compiler driver.

   Compiles a .lev source file to the simulator's IR, optionally runs the
   Levioso annotation pass, and can execute the result on the detailed
   pipeline under any defense:

     levioso_cc prog.lev                 # annotated disassembly to stdout
     levioso_cc prog.lev --run           # simulate (unsafe), dump mem[64]
     levioso_cc prog.lev --run -p levioso --watch 64 --watch 65 *)

module Ir = Levioso_ir.Ir
module Compiler = Levioso_lang.Compiler
module Annotation = Levioso_core.Annotation
module Registry = Levioso_core.Registry
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Opt = Levioso_opt.Opt
module Cli = Levioso_cli.Cli

let main file run policy watches optimize =
  let compile src =
    Result.map_error (Printf.sprintf "%s: %s" file) (Compiler.compile src)
  in
  match Result.bind (Cli.read_input file) compile with
  | Error msg -> Cli.runtime_error ~prog:"levioso_cc" msg
  | Ok raw ->
    let program = if optimize then Opt.optimize raw else raw in
    if optimize then
      Printf.eprintf "levioso_cc: -O: %d -> %d instructions\n"
        (Array.length raw) (Array.length program);
    let annotation = Annotation.analyze program in
    if not run then begin
      Printf.printf "; %s: %d instructions\n" file (Array.length program);
      print_string (Annotation.disassemble annotation);
      List.iter
        (fun (k, v) -> Printf.printf ";   %-18s %s\n" k v)
        (Annotation.stats annotation)
    end
    else begin
      let pipe =
        Pipeline.create Config.default ~policy:(Registry.find_exn policy) program
      in
      Pipeline.run pipe;
      let stats = Pipeline.stats pipe in
      Printf.printf "%s under %s: %d cycles, %d instructions (IPC %.2f)\n" file
        policy stats.Sim_stats.cycles stats.Sim_stats.committed
        (Sim_stats.ipc stats);
      let watches = if watches = [] then [ 64 ] else watches in
      List.iter
        (fun addr -> Printf.printf "  mem[%d] = %d\n" addr (Pipeline.mem pipe).(addr))
        watches
    end

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Lev source file.")

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
  let doc = "compile Lev programs for the Levioso simulator" in
  Cmd.v
    (Cmd.info "levioso_cc" ~doc
       ~exits:(Cli.exits ~doc:"when the source does not read or compile."))
    Term.(const main $ file_arg $ run_arg $ policy_arg $ watch_arg $ optimize_arg)

let () = exit (Cmd.eval cmd)
