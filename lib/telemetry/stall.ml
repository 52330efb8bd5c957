type cause =
  | Policy_gate
  | Operand_wait
  | Lsq_order
  | Rob_full
  | Exec_port

let all_causes = [ Policy_gate; Operand_wait; Lsq_order; Rob_full; Exec_port ]

let num_causes = List.length all_causes

let cause_index = function
  | Policy_gate -> 0
  | Operand_wait -> 1
  | Lsq_order -> 2
  | Rob_full -> 3
  | Exec_port -> 4

let cause_of_index = function
  | 0 -> Policy_gate
  | 1 -> Operand_wait
  | 2 -> Lsq_order
  | 3 -> Rob_full
  | 4 -> Exec_port
  | i -> invalid_arg (Printf.sprintf "Stall.cause_of_index: %d" i)

let cause_to_string = function
  | Policy_gate -> "policy_gate"
  | Operand_wait -> "operand_wait"
  | Lsq_order -> "lsq_order"
  | Rob_full -> "rob_full"
  | Exec_port -> "exec_port"

(* One flat int array, row per PC — charging is a single increment on the
   per-cycle hot path. *)
type t = {
  num_pcs : int;
  cells : int array;  (* num_pcs * num_causes *)
  totals : int array;  (* per cause *)
}

let create ~num_pcs =
  if num_pcs < 0 then invalid_arg "Stall.create: negative num_pcs";
  {
    num_pcs;
    cells = Array.make (max 1 (num_pcs * num_causes)) 0;
    totals = Array.make num_causes 0;
  }

let charge t ~cause ~pc =
  if pc < 0 || pc >= t.num_pcs then
    invalid_arg (Printf.sprintf "Stall.charge: pc %d out of range" pc);
  let ci = cause_index cause in
  t.cells.((pc * num_causes) + ci) <- t.cells.((pc * num_causes) + ci) + 1;
  t.totals.(ci) <- t.totals.(ci) + 1

let charge_n t ~cause ~pc n =
  if pc < 0 || pc >= t.num_pcs then
    invalid_arg (Printf.sprintf "Stall.charge_n: pc %d out of range" pc);
  if n < 0 then invalid_arg (Printf.sprintf "Stall.charge_n: negative count %d" n);
  let ci = cause_index cause in
  t.cells.((pc * num_causes) + ci) <- t.cells.((pc * num_causes) + ci) + n;
  t.totals.(ci) <- t.totals.(ci) + n

let accumulate dst src =
  if dst.num_pcs <> src.num_pcs then
    invalid_arg "Stall.accumulate: different num_pcs";
  for i = 0 to Array.length src.cells - 1 do
    dst.cells.(i) <- dst.cells.(i) + src.cells.(i)
  done;
  for i = 0 to num_causes - 1 do
    dst.totals.(i) <- dst.totals.(i) + src.totals.(i)
  done

let count t cause = t.totals.(cause_index cause)

let total t = Array.fold_left ( + ) 0 t.totals

let by_cause t = List.map (fun c -> (c, count t c)) all_causes

let per_pc_total t ~pc =
  if pc < 0 || pc >= t.num_pcs then 0
  else begin
    let s = ref 0 in
    for ci = 0 to num_causes - 1 do
      s := !s + t.cells.((pc * num_causes) + ci)
    done;
    !s
  end

let pc_causes t pc =
  List.filter_map
    (fun c ->
      let v = t.cells.((pc * num_causes) + cause_index c) in
      if v > 0 then Some (c, v) else None)
    all_causes

let top_pcs t ~k =
  let charged = ref [] in
  for pc = t.num_pcs - 1 downto 0 do
    let tot = per_pc_total t ~pc in
    if tot > 0 then charged := (pc, tot) :: !charged
  done;
  !charged
  |> List.sort (fun (pa, a) (pb, b) ->
         match compare b a with
         | 0 -> compare pa pb
         | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (pc, tot) -> (pc, tot, pc_causes t pc))

let to_json ?(top_k = 10) t =
  let top = top_pcs t ~k:top_k in
  Json.Obj
    [
      ("total", Json.Int (total t));
      ( "by_cause",
        Json.Obj
          (List.map
             (fun (c, n) -> (cause_to_string c, Json.Int n))
             (by_cause t)) );
      ( "top_pcs",
        Json.List
          (List.map
             (fun (pc, tot, causes) ->
               Json.Obj
                 [
                   ("pc", Json.Int pc);
                   ("total", Json.Int tot);
                   ( "causes",
                     Json.Obj
                       (List.map
                          (fun (c, n) -> (cause_to_string c, Json.Int n))
                          causes) );
                 ])
             top) );
    ]

let top_k = top_pcs

