module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Emulator = Levioso_ir.Emulator

let simulate ?(config = Config.default) ?mem_init ~policy program =
  let maker = Registry.find_exn policy in
  let pipe = Pipeline.create ?mem_init config ~policy:maker program in
  Pipeline.run pipe;
  pipe

let check_against_emulator ?(config = Config.default) ?(mem_init = fun _ -> ())
    ~policy program =
  let pipe = simulate ~config ~mem_init ~policy program in
  let reference =
    Emulator.run_program ~mem_words:config.Config.mem_words
      ~init:(fun state -> mem_init state.Emulator.mem)
      program
  in
  let pregs = Pipeline.regs pipe and pmem = Pipeline.mem pipe in
  let mismatch = ref None in
  Array.iteri
    (fun r v ->
      if !mismatch = None && r <> 0 && v <> reference.Emulator.regs.(r) then
        mismatch :=
          Some (Printf.sprintf "r%d: pipeline %d, emulator %d" r v reference.Emulator.regs.(r)))
    pregs;
  Array.iteri
    (fun a v ->
      if !mismatch = None && v <> reference.Emulator.mem.(a) then
        mismatch :=
          Some (Printf.sprintf "mem[%d]: pipeline %d, emulator %d" a v reference.Emulator.mem.(a)))
    pmem;
  match !mismatch with
  | None -> Ok ()
  | Some msg -> Error (Printf.sprintf "%s diverged from emulator: %s" policy msg)
