(* Instructions are buffered with symbolic targets; [build] patches label
   references into pc indices. *)

type pending =
  | Ready of Ir.instr
  | Branch_to of Ir.cmp * Ir.operand * Ir.operand * string
  | Jump_to of string

type t = {
  mutable code : pending list;  (* reverse order *)
  mutable count : int;
  labels : (string, int) Hashtbl.t;
  mutable next_label : int;
  mutable next_reg : int;
}

let create () =
  {
    code = [];
    count = 0;
    labels = Hashtbl.create 16;
    next_label = 0;
    next_reg = 1;
  }

let fresh_reg t =
  if t.next_reg >= Ir.num_regs then failwith "Builder.fresh_reg: register file exhausted";
  let r = t.next_reg in
  t.next_reg <- t.next_reg + 1;
  r

let fresh_label t =
  let name = Printf.sprintf "L%d" t.next_label in
  t.next_label <- t.next_label + 1;
  name

let place t name =
  if Hashtbl.mem t.labels name then failwith ("Builder.place: duplicate label " ^ name);
  Hashtbl.add t.labels name t.count

let push t p =
  t.code <- p :: t.code;
  t.count <- t.count + 1

let alu t op dst a b = push t (Ready (Ir.Alu { op; dst; a; b }))
let add t dst a b = alu t Ir.Add dst a b
let sub t dst a b = alu t Ir.Sub dst a b
let mul t dst a b = alu t Ir.Mul dst a b
let mov t dst a = alu t Ir.Add dst a (Ir.Imm 0)
let load t dst base off = push t (Ready (Ir.Load { dst; base; off }))
let store t base off src = push t (Ready (Ir.Store { base; off; src }))
let branch t cmp a b label = push t (Branch_to (cmp, a, b, label))
let jump t label = push t (Jump_to label)
let flush t base off = push t (Ready (Ir.Flush { base; off }))
let rdcycle ?(after = Ir.Imm 0) t dst =
  push t (Ready (Ir.Rdcycle { dst; after }))
let halt t = push t (Ready Ir.Halt)

let negate_cmp = function
  | Ir.Eq -> Ir.Ne
  | Ir.Ne -> Ir.Eq
  | Ir.Lt -> Ir.Ge
  | Ir.Le -> Ir.Gt
  | Ir.Gt -> Ir.Le
  | Ir.Ge -> Ir.Lt

let if_then t ~cond:(cmp, a, b) body =
  let skip = fresh_label t in
  branch t (negate_cmp cmp) a b skip;
  body ();
  place t skip

let if_then_else t ~cond:(cmp, a, b) then_body else_body =
  let else_l = fresh_label t in
  let end_l = fresh_label t in
  branch t (negate_cmp cmp) a b else_l;
  then_body ();
  jump t end_l;
  place t else_l;
  else_body ();
  place t end_l

let while_ t ~cond body =
  let head = fresh_label t in
  let exit = fresh_label t in
  place t head;
  let cmp, a, b = cond () in
  branch t (negate_cmp cmp) a b exit;
  body ();
  jump t head;
  place t exit

let for_down t ~counter ~from body =
  mov t counter from;
  let head = fresh_label t in
  let exit = fresh_label t in
  place t head;
  branch t Ir.Le (Ir.Reg counter) (Ir.Imm 0) exit;
  sub t counter (Ir.Reg counter) (Ir.Imm 1);
  body ();
  jump t head;
  place t exit

let build t =
  (* Guarantee the program cannot fall off the end. *)
  (match t.code with
  | Ready Ir.Halt :: _ | Jump_to _ :: _ -> ()
  | _ -> halt t);
  let resolve name =
    match Hashtbl.find_opt t.labels name with
    | Some pc -> pc
    | None -> failwith ("Builder.build: unplaced label " ^ name)
  in
  let finish = function
    | Ready i -> i
    | Branch_to (cmp, a, b, l) -> Ir.Branch { cmp; a; b; target = resolve l }
    | Jump_to l -> Ir.Jump { target = resolve l }
  in
  let program = Array.of_list (List.rev_map finish t.code) in
  match Ir.validate program with
  | Ok () -> program
  | Error msg -> failwith ("Builder.build: invalid program: " ^ msg)
