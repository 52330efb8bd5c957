exception Stuck of string

exception Halted

(* return value propagation out of inlined-call evaluation *)
exception Returning of int

type env = {
  mutable vars : (string * int ref) list;
  fns : (string, Ast.fn) Hashtbl.t;
  mem : int array;
  mutable fuel : int;
}

let mask env addr = addr land (Array.length env.mem - 1)

let lookup env x =
  match List.assoc_opt x env.vars with
  | Some r -> r
  | None -> raise (Stuck ("unbound variable " ^ x))

let bool_int b = if b then 1 else 0

let rec eval env (e : Ast.expr) =
  match e with
  | Ast.Lit n -> n
  | Ast.Var x -> !(lookup env x)
  | Ast.Neg a -> -eval env a
  | Ast.Not a -> bool_int (eval env a = 0)
  | Ast.Load a -> env.mem.(mask env (eval env a))
  | Ast.Rdcycle a ->
    (match a with
    | Some e -> ignore (eval env e : int)
    | None -> ());
    0
  | Ast.Binop (op, a, b) -> (
    let x = eval env a in
    let y = eval env b in
    match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> if y = 0 then 0 else x / y
    | Ast.Rem -> if y = 0 then 0 else x mod y
    | Ast.And -> x land y
    | Ast.Or -> x lor y
    | Ast.Xor -> x lxor y
    | Ast.Shl -> x lsl (y land 63)
    | Ast.Shr -> x asr (y land 63)
    | Ast.Eq -> bool_int (x = y)
    | Ast.Ne -> bool_int (x <> y)
    | Ast.Lt -> bool_int (x < y)
    | Ast.Le -> bool_int (x <= y)
    | Ast.Gt -> bool_int (x > y)
    | Ast.Ge -> bool_int (x >= y)
    | Ast.Logic_and -> bool_int (x <> 0 && y <> 0)
    | Ast.Logic_or -> bool_int (x <> 0 || y <> 0))
  | Ast.Call (name, args) -> call env name args

and call env name args =
  let f =
    match Hashtbl.find_opt env.fns name with
    | Some f -> f
    | None -> raise (Stuck ("undefined function " ^ name))
  in
  let values = List.map (fun a -> eval env a) args in
  let saved = env.vars in
  env.vars <- List.map2 (fun p v -> (p, ref v)) f.Ast.params values;
  let result = (try block env f.Ast.body; 0 with Returning v -> v) in
  env.vars <- saved;
  result

and block env stmts =
  let saved = env.vars in
  List.iter (stmt env) stmts;
  env.vars <- saved

and stmt env (s : Ast.stmt) =
  env.fuel <- env.fuel - 1;
  if env.fuel <= 0 then raise (Stuck "out of fuel");
  match s with
  | Ast.Decl (x, e) ->
    let v = eval env e in
    env.vars <- (x, ref v) :: env.vars
  | Ast.Assign (x, e) -> lookup env x := eval env e
  | Ast.If (c, then_, else_) ->
    if eval env c <> 0 then block env then_
    else Option.iter (block env) else_
  | Ast.While (c, body) ->
    while eval env c <> 0 do
      env.fuel <- env.fuel - 1;
      if env.fuel <= 0 then raise (Stuck "out of fuel");
      block env body
    done
  | Ast.Store (a, v) ->
    let addr = mask env (eval env a) in
    env.mem.(addr) <- eval env v
  | Ast.Flush a ->
    (* caches are not architectural, but the address expression can call
       a function that stores *)
    ignore (eval env a : int)
  | Ast.Expr_stmt e -> ignore (eval env e : int)
  | Ast.Return e -> raise (Returning (Option.fold ~none:0 ~some:(eval env) e))
  | Ast.Halt -> raise Halted

let run ?(fuel = 10_000_000) ~mem fns =
  let table = Hashtbl.create 16 in
  List.iter (fun (f : Ast.fn) -> Hashtbl.replace table f.Ast.name f) fns;
  let env = { vars = []; fns = table; mem; fuel } in
  match Hashtbl.find_opt table "main" with
  | None -> raise (Stuck "no main")
  | Some main -> (
    try block env main.Ast.body with
    | Halted -> ()
    | Returning _ -> ())
