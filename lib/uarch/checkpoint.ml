module Emulator = Levioso_ir.Emulator

type t = {
  ck_pc : int;
  ck_retired : int;
  ck_halted : bool;
  ck_regs : int array;
  ck_mem : int array;
  ck_cache : Cache.Hierarchy.hsnapshot;
  ck_pred : Predictor.state;
}

let capture (emu : Emulator.state) ~hierarchy ~predictor =
  {
    ck_pc = emu.Emulator.pc;
    ck_retired = emu.Emulator.retired;
    ck_halted = emu.Emulator.halted;
    ck_regs = Array.copy emu.Emulator.regs;
    ck_mem = Array.copy emu.Emulator.mem;
    ck_cache = Cache.Hierarchy.snapshot hierarchy;
    ck_pred = Predictor.save_state predictor;
  }

let restore_emulator c (emu : Emulator.state) =
  if Array.length emu.Emulator.mem <> Array.length c.ck_mem then
    invalid_arg
      (Printf.sprintf "Checkpoint.restore_emulator: memory size %d <> %d"
         (Array.length emu.Emulator.mem)
         (Array.length c.ck_mem));
  Array.blit c.ck_mem 0 emu.Emulator.mem 0 (Array.length c.ck_mem);
  Array.blit c.ck_regs 0 emu.Emulator.regs 0 (Array.length c.ck_regs);
  emu.Emulator.pc <- c.ck_pc;
  emu.Emulator.retired <- c.ck_retired;
  emu.Emulator.halted <- c.ck_halted

let restore_uarch c ~hierarchy ~predictor =
  Cache.Hierarchy.restore hierarchy c.ck_cache;
  Predictor.restore_state predictor c.ck_pred

let to_pipeline ?audit c cfg ~policy program =
  if Array.length c.ck_mem <> cfg.Config.mem_words then
    invalid_arg
      (Printf.sprintf
         "Checkpoint.to_pipeline: checkpoint memory has %d words, config \
          wants %d"
         (Array.length c.ck_mem) cfg.Config.mem_words);
  let hierarchy = Cache.Hierarchy.create cfg in
  let predictor = Predictor.create cfg in
  restore_uarch c ~hierarchy ~predictor;
  let pipe =
    Pipeline.create ?audit ~memory:(Array.copy c.ck_mem) ~hierarchy
      ~predictor cfg ~policy program
  in
  Pipeline.warm_start pipe ~regs:c.ck_regs ~pc:c.ck_pc;
  pipe
