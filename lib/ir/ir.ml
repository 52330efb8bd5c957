type reg = int

let num_regs = 32
let zero_reg = 0

type operand =
  | Reg of reg
  | Imm of int

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Set of cmp

type instr =
  | Alu of { op : alu_op; dst : reg; a : operand; b : operand }
  | Load of { dst : reg; base : operand; off : operand }
  | Store of { base : operand; off : operand; src : operand }
  | Branch of { cmp : cmp; a : operand; b : operand; target : int }
  | Jump of { target : int }
  | Flush of { base : operand; off : operand }
  | Rdcycle of { dst : reg; after : operand }
  | Halt

type program = instr array

let eval_cmp c (x : int) (y : int) =
  match c with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let eval_alu op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Rem -> if y = 0 then 0 else x mod y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (y land 63)
  | Shr -> x asr (y land 63)
  | Set c -> if eval_cmp c x y then 1 else 0

let defs = function
  | Alu { dst; _ } | Load { dst; _ } | Rdcycle { dst; _ } ->
    if dst = zero_reg then None else Some dst
  | Store _ | Branch _ | Jump _ | Flush _ | Halt -> None

let operand_reg = function
  | Reg r when r <> zero_reg -> [ r ]
  | Reg _ | Imm _ -> []

let uses = function
  | Alu { a; b; _ } | Branch { a; b; _ } -> operand_reg a @ operand_reg b
  | Load { base; off; _ } | Flush { base; off } -> operand_reg base @ operand_reg off
  | Store { base; off; src } ->
    operand_reg base @ operand_reg off @ operand_reg src
  | Rdcycle { after; _ } -> operand_reg after
  | Jump _ | Halt -> []

let is_branch = function
  | Branch _ -> true
  | Alu _ | Load _ | Store _ | Jump _ | Flush _ | Rdcycle _ | Halt -> false

let is_control = function
  | Branch _ | Jump _ | Halt -> true
  | Alu _ | Load _ | Store _ | Flush _ | Rdcycle _ -> false

let branch_target = function
  | Branch { target; _ } | Jump { target } -> Some target
  | Alu _ | Load _ | Store _ | Flush _ | Rdcycle _ | Halt -> None

let is_memory_access = function
  | Load _ | Store _ -> true
  | Alu _ | Branch _ | Jump _ | Flush _ | Rdcycle _ | Halt -> false

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let alu_op_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Set c -> "set" ^ cmp_to_string c

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm i -> Printf.sprintf "#%d" i

let instr_to_string instr =
  let op2 = operand_to_string in
  match instr with
  | Alu { op; dst; a; b } ->
    Printf.sprintf "%s r%d, %s, %s" (alu_op_to_string op) dst (op2 a) (op2 b)
  | Load { dst; base; off } ->
    Printf.sprintf "load r%d, [%s + %s]" dst (op2 base) (op2 off)
  | Store { base; off; src } ->
    Printf.sprintf "store [%s + %s], %s" (op2 base) (op2 off) (op2 src)
  | Branch { cmp; a; b; target } ->
    Printf.sprintf "b%s %s, %s, @%d" (cmp_to_string cmp) (op2 a) (op2 b) target
  | Jump { target } -> Printf.sprintf "jump @%d" target
  | Flush { base; off } -> Printf.sprintf "flush [%s + %s]" (op2 base) (op2 off)
  | Rdcycle { dst; after } -> Printf.sprintf "rdcycle r%d, %s" dst (op2 after)
  | Halt -> "halt"

let program_to_string ?(annot = fun _ -> "") program =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun pc instr ->
      let note = annot pc in
      let note = if note = "" then "" else "  ; " ^ note in
      Buffer.add_string buf (Printf.sprintf "%4d: %s%s\n" pc (instr_to_string instr) note))
    program;
  Buffer.contents buf

let validate program =
  let n = Array.length program in
  let check_reg r = r >= 0 && r < num_regs in
  let check_operand = function
    | Reg r -> check_reg r
    | Imm _ -> true
  in
  let bad = ref None in
  let fail pc msg =
    if !bad = None then bad := Some (Printf.sprintf "pc %d: %s" pc msg)
  in
  Array.iteri
    (fun pc instr ->
      (match defs instr with
      | Some r when not (check_reg r) -> fail pc "destination register out of range"
      | Some _ | None -> ());
      let operands_ok =
        match instr with
        | Alu { a; b; dst; _ } -> check_reg dst && check_operand a && check_operand b
        | Load { dst; base; off } -> check_reg dst && check_operand base && check_operand off
        | Store { base; off; src } ->
          check_operand base && check_operand off && check_operand src
        | Branch { a; b; _ } -> check_operand a && check_operand b
        | Flush { base; off } -> check_operand base && check_operand off
        | Rdcycle { dst; after } -> check_reg dst && check_operand after
        | Jump _ | Halt -> true
      in
      if not operands_ok then fail pc "operand register out of range";
      match branch_target instr with
      | Some t when t < 0 || t >= n -> fail pc "branch target out of range"
      | Some _ | None -> ())
    program;
  (if n = 0 then bad := Some "empty program"
   else
     match program.(n - 1) with
     | Halt | Jump _ -> ()
     | Alu _ | Load _ | Store _ | Branch _ | Flush _ | Rdcycle _ ->
       fail (n - 1) "program may fall off the end (last instr not halt/jump)");
  match !bad with
  | Some msg -> Error msg
  | None -> Ok ()
