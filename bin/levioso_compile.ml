(* levioso_compile: run the Levioso compiler pass and show its output —
   annotated disassembly plus the static-analysis statistics the paper's
   compiler table reports.  Input is a suite workload or an assembly file. *)

module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Encoding = Levioso_ir.Encoding
module Annotation = Levioso_core.Annotation
module Workload = Levioso_workload.Workload
module Catalog = Levioso_serve.Catalog
module Cli = Levioso_cli.Cli

(* A missing or doubled input is a usage error (124); a file that does
   not read or parse is a runtime failure (1). *)
let load_program workload file =
  match (workload, file) with
  | Some w, None -> Ok (w.Workload.name, w.Workload.program)
  | None, Some path -> (
    let parse src =
      Result.map_error (Printf.sprintf "%s: %s" path) (Parser.parse src)
    in
    match Result.bind (Cli.read_input path) parse with
    | Ok p -> Ok (path, p)
    | Error msg -> Cli.runtime_error ~prog:"levioso_compile" msg)
  | Some _, Some _ -> Error "pass either --workload or a file, not both"
  | None, None -> Error "pass --workload NAME or an assembly file"

let main workload file stats_only =
  match load_program workload file with
  | Error msg -> `Error (false, msg)
  | Ok (name, program) ->
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
    (match Encoding.encode ~hints program with
    | Ok words ->
      Printf.printf ";   %-18s %d bytes (8 per instruction, hints inline)\n"
        "encoded size" (8 * Array.length words)
    | Error e ->
      Printf.printf ";   %-18s pc %d: %s\n" "encoding" e.Encoding.pc
        e.Encoding.reason);
    `Ok ()

open Cmdliner

let workload_arg =
  let doc =
    "Workload to compile. Known: "
    ^ String.concat ", " (Catalog.workload_names ())
  in
  Arg.(
    value
    & opt (some Cli.workload) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Assembly file.")

let stats_only_arg =
  Arg.(value & flag & info [ "s"; "stats-only" ] ~doc:"Skip the disassembly.")

let cmd =
  let doc = "run the Levioso reconvergence-annotation pass" in
  Cmd.v
    (Cmd.info "levioso_compile" ~doc
       ~exits:(Cli.exits ~doc:"when the source does not read or compile."))
    Term.(ret (const main $ workload_arg $ file_arg $ stats_only_arg))

let () = exit (Cmd.eval cmd)
