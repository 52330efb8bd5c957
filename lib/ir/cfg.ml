type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
  preds : int list;
}

type t = {
  program : Ir.program;
  blocks : block array;
  pc_block : int array;
}

(* Leaders: pc 0, every control-transfer target, and every instruction
   following a control transfer. *)
let leaders program =
  let n = Array.length program in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc instr ->
      (match Ir.branch_target instr with
      | Some t -> leader.(t) <- true
      | None -> ());
      if Ir.is_control instr && pc + 1 < n then leader.(pc + 1) <- true)
    program;
  leader

let build program =
  assert (Array.length program > 0);
  let n = Array.length program in
  let leader = leaders program in
  let firsts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then firsts := pc :: !firsts
  done;
  let firsts = Array.of_list !firsts in
  let num = Array.length firsts in
  let pc_block = Array.make n 0 in
  let id_of_first = Hashtbl.create num in
  Array.iteri (fun id first -> Hashtbl.add id_of_first first id) firsts;
  let last_of id = if id + 1 < num then firsts.(id + 1) - 1 else n - 1 in
  for id = 0 to num - 1 do
    for pc = firsts.(id) to last_of id do
      pc_block.(pc) <- id
    done
  done;
  let succs_of id =
    let last = last_of id in
    match program.(last) with
    | Ir.Halt -> []
    | Ir.Jump { target } -> [ Hashtbl.find id_of_first target ]
    | Ir.Branch { target; _ } ->
      let fall = if last + 1 < n then [ pc_block.(last + 1) ] else [] in
      fall @ [ Hashtbl.find id_of_first target ]
    | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Flush _ | Ir.Rdcycle _ ->
      if last + 1 < n then [ pc_block.(last + 1) ] else []
  in
  let succs = Array.init num succs_of in
  let preds = Array.make num [] in
  Array.iteri
    (fun id ss -> List.iter (fun s -> preds.(s) <- id :: preds.(s)) ss)
    succs;
  let blocks =
    Array.init num (fun id ->
        {
          id;
          first = firsts.(id);
          last = last_of id;
          succs = succs.(id);
          preds = List.rev preds.(id);
        })
  in
  { program; blocks; pc_block }

let program t = t.program
let blocks t = t.blocks
let num_blocks t = Array.length t.blocks
let block t id = t.blocks.(id)
let block_of_pc t pc = t.pc_block.(pc)
let entry _ = 0

let exit_blocks t =
  Array.to_list t.blocks
  |> List.filter (fun b ->
         match t.program.(b.last) with
         | Ir.Halt -> true
         | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _
         | Ir.Flush _ | Ir.Rdcycle _ ->
           false)
  |> List.map (fun b -> b.id)

let branch_pcs t =
  let acc = ref [] in
  Array.iteri
    (fun pc instr -> if Ir.is_branch instr then acc := pc :: !acc)
    t.program;
  List.rev !acc

let instr_pcs b = List.init (b.last - b.first + 1) (fun i -> b.first + i)

