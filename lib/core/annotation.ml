module Ir = Levioso_ir.Ir
module Cfg = Levioso_ir.Cfg
module Reconvergence = Levioso_analysis.Reconvergence
module Control_dep = Levioso_analysis.Control_dep
module Branch_dep = Levioso_analysis.Branch_dep
module Loops = Levioso_analysis.Loops

type hint = Reconvergence.point =
  | Reconverges_at of int
  | No_reconvergence

type t = {
  program : Ir.program;
  cfg : Cfg.t;
  reconv : Reconvergence.t;
  hints : hint option array;  (* indexed by pc *)
}

let analyze program =
  let cfg = Cfg.build program in
  let reconv = Reconvergence.compute cfg in
  let hints = Array.make (Array.length program) None in
  List.iter
    (fun pc -> hints.(pc) <- Some (Reconvergence.point reconv pc))
    (Reconvergence.branch_pcs reconv);
  { program; cfg; reconv; hints }

let hint_for t pc = t.hints.(pc)
let coverage t = Reconvergence.coverage t.reconv

let disassemble t =
  let annot pc =
    match t.hints.(pc) with
    | Some (Reconverges_at r) -> Printf.sprintf "reconv @%d" r
    | Some No_reconvergence -> "reconv none"
    | None -> ""
  in
  Ir.program_to_string ~annot t.program

let stats t =
  let n = Array.length t.program in
  let branch_pcs = Cfg.branch_pcs t.cfg in
  let num_branches = List.length branch_pcs in
  let cd = Control_dep.compute t.cfg in
  let region_sizes =
    List.map (fun pc -> float_of_int (Control_dep.region_size cd pc)) branch_pcs
  in
  let bd = Branch_dep.compute t.cfg in
  let mean xs =
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let loop_info = Loops.compute t.cfg in
  [
    ("static instrs", string_of_int n);
    ("branches", string_of_int num_branches);
    ( "loops (max depth)",
      Printf.sprintf "%d (%d)"
        (List.length (Loops.headers loop_info))
        (Loops.max_depth loop_info) );
    ("reconv coverage", Printf.sprintf "%.0f%%" (100.0 *. coverage t));
    ("mean region", Printf.sprintf "%.1f" (mean region_sizes));
    ( "dep-free instrs",
      Printf.sprintf "%.0f%%" (100.0 *. Branch_dep.independent_fraction bd) );
    ("mean dep set", Printf.sprintf "%.1f" (Branch_dep.mean_set_size bd));
    ("max dep set", string_of_int (Branch_dep.max_set_size bd));
  ]
