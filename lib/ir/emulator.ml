type state = {
  regs : int array;
  mem : int array;
  mutable pc : int;
  mutable retired : int;
  mutable halted : bool;
  program : Ir.program;
  mutable decoded : int array;
}

exception Out_of_fuel

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(mem_words = 65536) ?memory program =
  let mem =
    match memory with
    | Some m -> m
    | None -> Array.make mem_words 0
  in
  if not (is_power_of_two (Array.length mem)) then
    invalid_arg
      (Printf.sprintf "Emulator.create: mem_words must be a power of two, got %d"
         (Array.length mem));
  {
    regs = Array.make Ir.num_regs 0;
    mem;
    pc = 0;
    retired = 0;
    halted = false;
    program;
    decoded = [||];
  }

let mask_addr state addr = addr land (Array.length state.mem - 1)

let read_reg state r = if r = Ir.zero_reg then 0 else state.regs.(r)

let write_reg state r v = if r <> Ir.zero_reg then state.regs.(r) <- v

let operand state = function
  | Ir.Reg r -> read_reg state r
  | Ir.Imm i -> i

let step state =
  if not state.halted then begin
    let instr = state.program.(state.pc) in
    let next = state.pc + 1 in
    (match instr with
    | Ir.Alu { op; dst; a; b } ->
      write_reg state dst (Ir.eval_alu op (operand state a) (operand state b));
      state.pc <- next
    | Ir.Load { dst; base; off } ->
      let addr = mask_addr state (operand state base + operand state off) in
      write_reg state dst state.mem.(addr);
      state.pc <- next
    | Ir.Store { base; off; src } ->
      let addr = mask_addr state (operand state base + operand state off) in
      state.mem.(addr) <- operand state src;
      state.pc <- next
    | Ir.Branch { cmp; a; b; target } ->
      let taken = Ir.eval_cmp cmp (operand state a) (operand state b) in
      state.pc <- (if taken then target else next)
    | Ir.Jump { target } -> state.pc <- target
    | Ir.Flush _ -> state.pc <- next (* no cache architecturally *)
    | Ir.Rdcycle { dst; _ } ->
      write_reg state dst state.retired;
      state.pc <- next
    | Ir.Halt -> state.halted <- true);
    state.retired <- state.retired + 1
  end

let run ?(fuel = 10_000_000) state =
  let budget = ref fuel in
  while not state.halted do
    if !budget <= 0 then raise Out_of_fuel;
    decr budget;
    step state
  done

let run_program ?mem_words ?fuel ?(init = fun _ -> ()) program =
  let state = create ?mem_words program in
  init state;
  run ?fuel state;
  state

(* --- batched fast path ---------------------------------------------- *)

(* The program decoded once into a flat int array, 8 ints per
   instruction: [op; dst_or_target; a_kind; a_val; b_kind; b_val;
   c_kind; c_val].  Operand kind 0 is a literal (immediates and the
   always-zero register), kind 1 a register index.  Destination -1
   means "no write" (the zero register).  The layout keeps the stepping
   loop free of variant matches and of any allocation. *)

let stride = 8

(* opcodes *)
let op_load = 16
let op_store = 17
let op_jump = 24
let op_flush = 25
let op_rdcycle = 26
let op_halt = 27

let cmp_code = function
  | Ir.Eq -> 0
  | Ir.Ne -> 1
  | Ir.Lt -> 2
  | Ir.Le -> 3
  | Ir.Gt -> 4
  | Ir.Ge -> 5

let alu_code = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> 3
  | Ir.Rem -> 4
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Shr -> 9
  | Ir.Set c -> 10 + cmp_code c

(* branch opcodes are 18 + cmp_code *)
let op_branch = 18

let eval_cmp_code c (x : int) (y : int) =
  match c with
  | 0 -> x = y
  | 1 -> x <> y
  | 2 -> x < y
  | 3 -> x <= y
  | 4 -> x > y
  | _ -> x >= y

let decode_program program =
  let n = Array.length program in
  let code = Array.make (n * stride) 0 in
  let put_operand i slot op =
    match op with
    | Ir.Imm v ->
      code.(i + slot) <- 0;
      code.(i + slot + 1) <- v
    | Ir.Reg r ->
      if r = Ir.zero_reg then begin
        code.(i + slot) <- 0;
        code.(i + slot + 1) <- 0
      end
      else begin
        code.(i + slot) <- 1;
        code.(i + slot + 1) <- r
      end
  in
  let put_dst i dst = code.(i + 1) <- (if dst = Ir.zero_reg then -1 else dst) in
  Array.iteri
    (fun pc instr ->
      let i = pc * stride in
      match instr with
      | Ir.Alu { op; dst; a; b } ->
        code.(i) <- alu_code op;
        put_dst i dst;
        put_operand i 2 a;
        put_operand i 4 b
      | Ir.Load { dst; base; off } ->
        code.(i) <- op_load;
        put_dst i dst;
        put_operand i 2 base;
        put_operand i 4 off
      | Ir.Store { base; off; src } ->
        code.(i) <- op_store;
        code.(i + 1) <- -1;
        put_operand i 2 base;
        put_operand i 4 off;
        put_operand i 6 src
      | Ir.Branch { cmp; a; b; target } ->
        code.(i) <- op_branch + cmp_code cmp;
        code.(i + 1) <- target;
        put_operand i 2 a;
        put_operand i 4 b
      | Ir.Jump { target } ->
        code.(i) <- op_jump;
        code.(i + 1) <- target
      | Ir.Flush { base; off } ->
        code.(i) <- op_flush;
        code.(i + 1) <- -1;
        put_operand i 2 base;
        put_operand i 4 off
      | Ir.Rdcycle { dst; after } ->
        code.(i) <- op_rdcycle;
        put_dst i dst;
        put_operand i 2 after
      | Ir.Halt -> code.(i) <- op_halt)
    program;
  code

let decoded state =
  if Array.length state.decoded = 0 && Array.length state.program > 0 then
    state.decoded <- decode_program state.program;
  state.decoded

type hooks = {
  h_load : int -> unit;  (** masked effective address of every load *)
  h_store : int -> unit;  (** masked effective address of every store *)
  h_flush : int -> unit;  (** masked effective address of every flush *)
  h_branch : pc:int -> taken:bool -> unit;
      (** every conditional branch, with its resolved direction *)
}

let no_hooks =
  {
    h_load = (fun _ -> ());
    h_store = (fun _ -> ());
    h_flush = (fun _ -> ());
    h_branch = (fun ~pc:_ ~taken:_ -> ());
  }

let run_steps ?(hooks = no_hooks) state n =
  if state.halted || n <= 0 then 0
  else begin
    let code = decoded state in
    let mem = state.mem in
    let regs = state.regs in
    let mask = Array.length mem - 1 in
    let retired0 = state.retired in
    (* Tail-recursive over bare ints; operand reads, ALU dispatch and
       address math all stay on int codes, so a step allocates nothing. *)
    let rec go executed pc =
      if executed >= n then begin
        state.pc <- pc;
        executed
      end
      else begin
        let i = pc * stride in
        let op = code.(i) in
        if op = op_halt then begin
          state.halted <- true;
          state.pc <- pc;
          executed + 1
        end
        else
          let a =
            if code.(i + 2) = 0 then code.(i + 3) else regs.(code.(i + 3))
          in
          let b =
            if code.(i + 4) = 0 then code.(i + 5) else regs.(code.(i + 5))
          in
          if op < 16 then begin
            (* ALU, including set-on-compare (codes 10..15) *)
            let v =
              match op with
              | 0 -> a + b
              | 1 -> a - b
              | 2 -> a * b
              | 3 -> if b = 0 then 0 else a / b
              | 4 -> if b = 0 then 0 else a mod b
              | 5 -> a land b
              | 6 -> a lor b
              | 7 -> a lxor b
              | 8 -> a lsl (b land 63)
              | 9 -> a asr (b land 63)
              | _ -> if eval_cmp_code (op - 10) a b then 1 else 0
            in
            let dst = code.(i + 1) in
            if dst >= 0 then regs.(dst) <- v;
            go (executed + 1) (pc + 1)
          end
          else if op = op_load then begin
            let addr = (a + b) land mask in
            hooks.h_load addr;
            let dst = code.(i + 1) in
            if dst >= 0 then regs.(dst) <- mem.(addr);
            go (executed + 1) (pc + 1)
          end
          else if op = op_store then begin
            let addr = (a + b) land mask in
            let src =
              if code.(i + 6) = 0 then code.(i + 7) else regs.(code.(i + 7))
            in
            mem.(addr) <- src;
            hooks.h_store addr;
            go (executed + 1) (pc + 1)
          end
          else if op < op_jump then begin
            (* conditional branch *)
            let taken = eval_cmp_code (op - op_branch) a b in
            hooks.h_branch ~pc ~taken;
            go (executed + 1) (if taken then code.(i + 1) else pc + 1)
          end
          else if op = op_jump then go (executed + 1) code.(i + 1)
          else if op = op_flush then begin
            hooks.h_flush ((a + b) land mask);
            go (executed + 1) (pc + 1)
          end
          else begin
            (* rdcycle: architecturally the retired count, which in this
               batched loop is the entry count plus steps taken so far *)
            let dst = code.(i + 1) in
            if dst >= 0 then regs.(dst) <- retired0 + executed;
            go (executed + 1) (pc + 1)
          end
      end
    in
    let executed = go 0 state.pc in
    state.retired <- retired0 + executed;
    executed
  end
