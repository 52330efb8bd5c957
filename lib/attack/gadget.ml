module Ir = Levioso_ir.Ir
module Builder = Levioso_ir.Builder

type t = {
  name : string;
  program : Ir.program;
  mem_init : int array -> unit;
  secret : int;
}

(* Fixed attack memory layout (word addresses). *)
let guard_ind_addr = 64  (* holds guard_addr: indirection doubles the window *)
let guard_addr = 72
let secret_addr = 128
let array1_base = 1024
let array1_size = 16
let victim_offset = 600  (* array1_base + 600 = the secret's address *)
let timing_results_base = 2048
let probe_base = 16384
let probe_values = 64
let line_words = 8

let probe_line_addr v = probe_base + (v * line_words)
let oob_secret_addr = array1_base + victim_offset

(* Decoy transmit value used during training: encodes one line past the
   probed range, so training never preheats a probed line. *)
let decoy = probe_values

(* Measure the reload time of every probe line and store it to
   [timing_results_base + v].  Each probe load's address depends on the
   preceding timestamp so the out-of-order core cannot hoist it; the whole
   loop is serialized behind [after] (the victim's guard value) through a
   dependency chain, playing the role of the lfence real PoCs issue before
   probing — otherwise the probe loads pre-execute speculatively under the
   still-unresolved victim branch and pollute their own lines. *)
let emit_timing_probe b ~after =
  let v = Builder.fresh_reg b in
  let addr = Builder.fresh_reg b in
  let t0 = Builder.fresh_reg b in
  let t1 = Builder.fresh_reg b in
  let x = Builder.fresh_reg b in
  Builder.alu b Ir.And t1 after (Ir.Imm 0);
  for _ = 1 to 8 do
    Builder.add b t1 (Ir.Reg t1) (Ir.Imm 0)
  done;
  Builder.for_down b ~counter:v ~from:(Ir.Imm probe_values) (fun () ->
      Builder.rdcycle ~after:(Ir.Reg t1) b t0;
      Builder.alu b Ir.And addr (Ir.Reg t0) (Ir.Imm 0);
      Builder.alu b Ir.Shl x (Ir.Reg v) (Ir.Imm 3);
      Builder.add b addr (Ir.Reg addr) (Ir.Reg x);
      Builder.load b x (Ir.Reg addr) (Ir.Imm probe_base);
      Builder.rdcycle ~after:(Ir.Reg x) b t1;
      Builder.sub b x (Ir.Reg t1) (Ir.Reg t0);
      Builder.store b (Ir.Reg v) (Ir.Imm timing_results_base) (Ir.Reg x))

(* Attack-round preparation: flush the guard indirection chain (so the
   victim branch resolves ~2 memory latencies late) and the probe array. *)
let emit_flushes b ~scratch1 ~scratch2 =
  Builder.flush b (Ir.Imm guard_ind_addr) (Ir.Imm 0);
  Builder.flush b (Ir.Imm guard_addr) (Ir.Imm 0);
  Builder.for_down b ~counter:scratch1 ~from:(Ir.Imm probe_values) (fun () ->
      Builder.alu b Ir.Shl scratch2 (Ir.Reg scratch1) (Ir.Imm 3);
      Builder.flush b (Ir.Reg scratch2) (Ir.Imm probe_base))

(* Load the guard value through its indirection (cheap while trained,
   two chained misses during the attack round). *)
let emit_guard_load b ~guard_ptr ~size =
  Builder.load b guard_ptr (Ir.Imm guard_ind_addr) (Ir.Imm 0);
  Builder.load b size (Ir.Reg guard_ptr) (Ir.Imm 0)

let base_mem_init mem =
  mem.(guard_ind_addr) <- guard_addr;
  for i = 0 to array1_size - 1 do
    (* benign in-bounds data transmits only the decoy line *)
    mem.(array1_base + i) <- decoy
  done

(* Spectre-v1 sandbox gadget.  One loop; the victim code (guard load +
   bounds-checked access + transmit) has a single static pc for its branch,
   which the benign rounds train not-taken; the final round (counter = 0)
   flushes and aims out of bounds. *)
let bounds_check_bypass ?(training_rounds = 40) ?(timing = false) ~secret () =
  assert (secret >= 0 && secret < probe_values);
  let b = Builder.create () in
  let t = Builder.fresh_reg b in
  let s1 = Builder.fresh_reg b in
  let s2 = Builder.fresh_reg b in
  let idx = Builder.fresh_reg b in
  let size = Builder.fresh_reg b in
  let guard_ptr = Builder.fresh_reg b in
  let v = Builder.fresh_reg b in
  Builder.for_down b ~counter:t ~from:(Ir.Imm (training_rounds + 1)) (fun () ->
      (* benign rounds sweep in-bounds indices; the final round aims at the
         secret's offset after flushing *)
      Builder.alu b Ir.And idx (Ir.Reg t) (Ir.Imm (array1_size - 1));
      Builder.if_then b
        ~cond:(Ir.Eq, Ir.Reg t, Ir.Imm 0)
        (fun () ->
          Builder.mov b idx (Ir.Imm victim_offset);
          emit_flushes b ~scratch1:s1 ~scratch2:s2);
      (* the victim *)
      emit_guard_load b ~guard_ptr ~size;
      Builder.if_then b
        ~cond:(Ir.Lt, Ir.Reg idx, Ir.Reg size)
        (fun () ->
          Builder.load b v (Ir.Reg idx) (Ir.Imm array1_base);
          Builder.alu b Ir.Shl v (Ir.Reg v) (Ir.Imm 3);
          Builder.load b v (Ir.Reg v) (Ir.Imm probe_base)));
  if timing then emit_timing_probe b ~after:(Ir.Reg size);
  Builder.halt b;
  {
    name = "bounds-check-bypass";
    program = Builder.build b;
    mem_init =
      (fun mem ->
        base_mem_init mem;
        mem.(guard_addr) <- array1_size;
        mem.(array1_base + victim_offset) <- secret);
    secret;
  }

(* Non-speculative-secret gadget.  The secret is loaded architecturally at
   program start and sits in a register (as in constant-time code); the
   benign rounds execute the guarded path with a decoy transmit value; the
   attack round switches the transmit register to the secret (harmless
   architecturally — the guard now steers away) and lets the trained
   predictor run the transmit on the wrong path. *)
let register_secret ?(training_rounds = 40) ?(timing = false) ~secret () =
  assert (secret >= 0 && secret < probe_values);
  let b = Builder.create () in
  let t = Builder.fresh_reg b in
  let s1 = Builder.fresh_reg b in
  let s2 = Builder.fresh_reg b in
  let trans = Builder.fresh_reg b in
  let x = Builder.fresh_reg b in
  let size = Builder.fresh_reg b in
  let guard_ptr = Builder.fresh_reg b in
  let secret_reg = Builder.fresh_reg b in
  let junk = Builder.fresh_reg b in
  (* the secret is read long before any speculation and simply kept in a
     register — no taint survives its commit *)
  Builder.load b secret_reg (Ir.Imm secret_addr) (Ir.Imm 0);
  Builder.for_down b ~counter:t ~from:(Ir.Imm (training_rounds + 1)) (fun () ->
      Builder.mov b trans (Ir.Imm (decoy * line_words));
      Builder.mov b x (Ir.Imm 0);
      Builder.if_then b
        ~cond:(Ir.Eq, Ir.Reg t, Ir.Imm 0)
        (fun () ->
          Builder.alu b Ir.Shl trans (Ir.Reg secret_reg) (Ir.Imm 3);
          Builder.mov b x (Ir.Imm 1_000_000);
          emit_flushes b ~scratch1:s1 ~scratch2:s2);
      (* the victim *)
      emit_guard_load b ~guard_ptr ~size;
      Builder.if_then b
        ~cond:(Ir.Lt, Ir.Reg x, Ir.Reg size)
        (fun () -> Builder.load b junk (Ir.Reg trans) (Ir.Imm probe_base)));
  if timing then emit_timing_probe b ~after:(Ir.Reg size);
  Builder.halt b;
  {
    name = "register-secret";
    program = Builder.build b;
    mem_init =
      (fun mem ->
        base_mem_init mem;
        mem.(guard_addr) <- 500;
        mem.(secret_addr) <- secret);
    secret;
  }
