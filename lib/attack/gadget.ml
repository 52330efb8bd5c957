module Ir = Levioso_ir.Ir
module Builder = Levioso_ir.Builder
module Registry = Levioso_core.Registry

type t = {
  name : string;
  secret_class : Registry.secret_class;
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
    secret_class = Registry.Speculative_load;
    program = Builder.build b;
    mem_init =
      (fun mem ->
        base_mem_init mem;
        mem.(guard_addr) <- array1_size;
        mem.(array1_base + victim_offset) <- secret);
    secret;
  }

(* Non-speculative-secret gadgets.  The secret is loaded architecturally
   at program start and sits in a register (as in constant-time code); the
   benign rounds execute the guarded path with a decoy transmit value; the
   attack round arms the secret (harmless architecturally — the guard now
   steers away) and lets the trained predictor run the guarded path on the
   wrong path.  In the in-region shape the guarded path is the transmit
   itself.  In the reconverged shape it only writes [w = secret & mask]
   ([mask] is 0 while training, every value bit in the attack round), over
   a decoy [w] set before the guard, and the transmit of [w] follows the
   guard's reconvergence point: nothing but a data dependence on the
   branch ties it to the misprediction. *)
let register_gadget ~past_reconvergence ?(training_rounds = 40)
    ?(timing = false) ~secret () =
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
  (* the in-region shape needs no mask; allocating one anyway would
     renumber its timing probe's registers *)
  let mask = if past_reconvergence then Builder.fresh_reg b else junk in
  (* the secret is read long before any speculation and simply kept in a
     register — no taint survives its commit *)
  Builder.load b secret_reg (Ir.Imm secret_addr) (Ir.Imm 0);
  Builder.for_down b ~counter:t ~from:(Ir.Imm (training_rounds + 1)) (fun () ->
      if past_reconvergence then begin
        Builder.mov b trans (Ir.Imm decoy);
        Builder.mov b mask (Ir.Imm 0)
      end
      else Builder.mov b trans (Ir.Imm (decoy * line_words));
      Builder.mov b x (Ir.Imm 0);
      Builder.if_then b
        ~cond:(Ir.Eq, Ir.Reg t, Ir.Imm 0)
        (fun () ->
          if past_reconvergence then
            Builder.mov b mask (Ir.Imm (probe_values - 1))
          else Builder.alu b Ir.Shl trans (Ir.Reg secret_reg) (Ir.Imm 3);
          Builder.mov b x (Ir.Imm 1_000_000);
          emit_flushes b ~scratch1:s1 ~scratch2:s2);
      (* the victim *)
      emit_guard_load b ~guard_ptr ~size;
      Builder.if_then b
        ~cond:(Ir.Lt, Ir.Reg x, Ir.Reg size)
        (fun () ->
          if past_reconvergence then
            Builder.alu b Ir.And trans (Ir.Reg secret_reg) (Ir.Reg mask)
          else Builder.load b junk (Ir.Reg trans) (Ir.Imm probe_base));
      if past_reconvergence then begin
        Builder.alu b Ir.Shl trans (Ir.Reg trans) (Ir.Imm 3);
        Builder.load b junk (Ir.Reg trans) (Ir.Imm probe_base)
      end);
  if timing then emit_timing_probe b ~after:(Ir.Reg size);
  Builder.halt b;
  {
    name =
      (if past_reconvergence then "register-secret-reconverged"
       else "register-secret");
    secret_class =
      (if past_reconvergence then Registry.Register_past_reconvergence
       else Registry.Register_in_region);
    program = Builder.build b;
    mem_init =
      (fun mem ->
        base_mem_init mem;
        mem.(guard_addr) <- 500;
        mem.(secret_addr) <- secret);
    secret;
  }

let register_secret = register_gadget ~past_reconvergence:false
let register_secret_reconverged = register_gadget ~past_reconvergence:true

type maker = ?training_rounds:int -> ?timing:bool -> secret:int -> unit -> t

let roster : (string * maker) list =
  [
    ("v1", bounds_check_bypass);
    ("reg-secret", register_secret);
    ("reg-reconverged", register_secret_reconverged);
  ]
