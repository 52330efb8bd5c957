module Ir = Levioso_ir.Ir
module Encoding = Levioso_ir.Encoding
module Parser = Levioso_ir.Parser
module Emulator = Levioso_ir.Emulator
module Annotation = Levioso_core.Annotation
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Gadget = Levioso_attack.Gadget

(* Encoding may mirror an immediate-on-the-left comparison and
   canonicalizes zero immediates to reads of r0; everything else must
   round-trip structurally. *)
let normalize_operand = function
  | Ir.Imm 0 -> Ir.Reg 0
  | other -> other

let normalize = function
  | Ir.Alu { op; dst; a; b } ->
    Ir.Alu { op; dst; a = normalize_operand a; b = normalize_operand b }
  | Ir.Load { dst; base; off } ->
    Ir.Load { dst; base = normalize_operand base; off = normalize_operand off }
  | Ir.Store { base; off; src } ->
    Ir.Store
      {
        base = normalize_operand base;
        off = normalize_operand off;
        src = normalize_operand src;
      }
  | Ir.Flush { base; off } ->
    Ir.Flush { base = normalize_operand base; off = normalize_operand off }
  | Ir.Rdcycle { dst; after } -> Ir.Rdcycle { dst; after = normalize_operand after }
  | (Ir.Branch _ | Ir.Jump _ | Ir.Halt) as i -> i

let instr_equiv original decoded =
  let original = normalize original in
  original = decoded
  ||
  match (original, decoded) with
  | ( Ir.Branch { cmp = c1; a = Ir.Imm i; b = Ir.Reg r; target = t1 },
      Ir.Branch { cmp = c2; a = Ir.Reg r'; b = Ir.Imm i'; target = t2 } ) ->
    t1 = t2 && r = r' && i = i'
    && c2
       = (match c1 with
         | Ir.Eq -> Ir.Eq
         | Ir.Ne -> Ir.Ne
         | Ir.Lt -> Ir.Gt
         | Ir.Le -> Ir.Ge
         | Ir.Gt -> Ir.Lt
         | Ir.Ge -> Ir.Le)
  | _ -> false

let check_roundtrip ?hints name program =
  match Encoding.encode ?hints program with
  | Error e ->
    Alcotest.fail
      (Printf.sprintf "%s: encode failed at pc %d: %s" name e.Encoding.pc
         e.Encoding.reason)
  | Ok words -> (
    match Encoding.decode words with
    | Error msg -> Alcotest.fail (name ^ ": decode failed: " ^ msg)
    | Ok (decoded, hint_pairs) ->
      Alcotest.(check int) (name ^ ": same length") (Array.length program)
        (Array.length decoded);
      Array.iteri
        (fun pc instr ->
          Alcotest.(check bool)
            (Printf.sprintf "%s pc %d: %s ~ %s" name pc (Ir.instr_to_string instr)
               (Ir.instr_to_string decoded.(pc)))
            true
            (instr_equiv instr decoded.(pc)))
        program;
      hint_pairs)

let test_single_instructions () =
  let cases =
    [
      Ir.Alu { op = Ir.Add; dst = 3; a = Ir.Reg 1; b = Ir.Imm (-5) };
      Ir.Alu { op = Ir.Set Ir.Ge; dst = 31; a = Ir.Imm 100; b = Ir.Reg 30 };
      Ir.Load { dst = 7; base = Ir.Reg 2; off = Ir.Imm 1_000_000 };
      Ir.Store { base = Ir.Reg 1; off = Ir.Imm (-32768); src = Ir.Reg 9 };
      Ir.Store { base = Ir.Imm 100; off = Ir.Imm 0; src = Ir.Reg 9 };
      Ir.Alu { op = Ir.Mul; dst = 2; a = Ir.Reg 2; b = Ir.Imm 2654435761 };
      Ir.Flush { base = Ir.Reg 4; off = Ir.Imm 8 };
      Ir.Rdcycle { dst = 5; after = Ir.Reg 6 };
      Ir.Jump { target = 65535 };
      Ir.Halt;
      Ir.Branch { cmp = Ir.Lt; a = Ir.Reg 3; b = Ir.Imm 2047; target = 12 };
      Ir.Branch { cmp = Ir.Ne; a = Ir.Reg 3; b = Ir.Reg 4; target = 0 };
    ]
  in
  List.iter
    (fun instr ->
      match Encoding.encode_instr instr with
      | Error msg -> Alcotest.fail (Ir.instr_to_string instr ^ ": " ^ msg)
      | Ok word -> (
        match Encoding.decode_instr word with
        | Error msg -> Alcotest.fail (Ir.instr_to_string instr ^ ": " ^ msg)
        | Ok (decoded, _) ->
          Alcotest.(check bool)
            (Ir.instr_to_string instr)
            true (instr_equiv instr decoded)))
    cases

let test_branch_hint_roundtrip () =
  let branch = Ir.Branch { cmp = Ir.Ge; a = Ir.Reg 1; b = Ir.Imm 0; target = 7 } in
  match Encoding.encode_instr ~hint:9 branch with
  | Error msg -> Alcotest.fail msg
  | Ok word -> (
    match Encoding.decode_instr word with
    | Ok (_, Some h) -> Alcotest.(check int) "hint" 9 h
    | Ok (_, None) -> Alcotest.fail "hint lost"
    | Error msg -> Alcotest.fail msg)

let test_hint_zero_pc_roundtrips () =
  (* hint pc 0 must be distinguishable from "no hint" *)
  let branch = Ir.Branch { cmp = Ir.Eq; a = Ir.Reg 1; b = Ir.Reg 2; target = 3 } in
  match Encoding.encode_instr ~hint:0 branch with
  | Error msg -> Alcotest.fail msg
  | Ok word -> (
    match Encoding.decode_instr word with
    | Ok (_, Some 0) -> ()
    | Ok (_, _) -> Alcotest.fail "hint 0 not preserved"
    | Error msg -> Alcotest.fail msg)

let test_errors_reported () =
  let too_wide =
    Ir.Alu { op = Ir.Add; dst = 1; a = Ir.Imm (1 lsl 40); b = Ir.Reg 2 }
  in
  Alcotest.(check bool) "wide imm rejected" true
    (Result.is_error (Encoding.encode_instr too_wide));
  let two_imms =
    Ir.Store { base = Ir.Imm 1; off = Ir.Imm 2; src = Ir.Imm 3 }
  in
  Alcotest.(check bool) "two non-zero immediates rejected" true
    (Result.is_error (Encoding.encode_instr two_imms));
  let const_branch =
    Ir.Branch { cmp = Ir.Eq; a = Ir.Imm 1; b = Ir.Imm 1; target = 0 }
  in
  Alcotest.(check bool) "constant branch rejected" true
    (Result.is_error (Encoding.encode_instr const_branch));
  let hint_on_alu =
    Encoding.encode_instr ~hint:3 (Ir.Alu { op = Ir.Add; dst = 1; a = Ir.Reg 1; b = Ir.Reg 2 })
  in
  Alcotest.(check bool) "hint on non-branch rejected" true (Result.is_error hint_on_alu)

let test_all_workloads_encode () =
  List.iter
    (fun (w : Workload.t) ->
      let annotation = Annotation.analyze w.Workload.program in
      let hints pc =
        match Annotation.hint_for annotation pc with
        | Some (Annotation.Reconverges_at r) -> Some r
        | Some Annotation.No_reconvergence | None -> None
      in
      let pairs = check_roundtrip ~hints w.Workload.name w.Workload.program in
      (* every annotated branch's hint must survive *)
      Array.iteri
        (fun pc _ ->
          match Annotation.hint_for annotation pc with
          | Some (Annotation.Reconverges_at r) ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s hint at %d" w.Workload.name pc)
              (Some r)
              (List.assoc_opt pc pairs)
          | Some Annotation.No_reconvergence | None -> ())
        w.Workload.program)
    Suite.all

let test_gadgets_encode () =
  List.iter
    (fun (_, (make : Gadget.maker)) ->
      List.iter
        (fun timing ->
          let g = make ~timing ~secret:5 () in
          ignore (check_roundtrip g.Gadget.name g.Gadget.program))
        [ false; true ])
    Gadget.roster

let test_decoded_program_runs_identically () =
  let w = Suite.find_exn "sort" in
  match Encoding.encode w.Workload.program with
  | Error _ -> Alcotest.fail "encode"
  | Ok words -> (
    match Encoding.decode words with
    | Error msg -> Alcotest.fail msg
    | Ok (decoded, _) ->
      let run p =
        let s =
          Emulator.run_program ~mem_words:(1 lsl 20)
            ~init:(fun st -> w.Workload.mem_init st.Emulator.mem)
            p
        in
        (Array.copy s.Emulator.regs, s.Emulator.retired)
      in
      Alcotest.(check bool) "same execution" true (run w.Workload.program = run decoded))

let test_code_size () =
  let w = Suite.find_exn "matmul" in
  Alcotest.(check int) "8 bytes per instr"
    (8 * Array.length w.Workload.program)
    (Encoding.code_size_bytes w.Workload.program)

let prop_roundtrip_random_programs =
  QCheck.Test.make ~count:80
    ~name:"random programs encode/decode to equivalent instructions"
    QCheck.small_nat
    (fun seed ->
      let program = Test_props.random_program seed in
      match Encoding.encode program with
      | Error e
        when e.Encoding.reason = "constant-vs-constant branch"
             || e.Encoding.reason = "more than one immediate operand" ->
        (* the two documented unencodable forms; a real compiler
           constant-folds both away (the Lev codegen does) *)
        true
      | Error e ->
        QCheck.Test.fail_reportf "seed %d: pc %d: %s" seed e.Encoding.pc
          e.Encoding.reason
      | Ok words -> (
        match Encoding.decode words with
        | Error msg -> QCheck.Test.fail_reportf "seed %d: decode: %s" seed msg
        | Ok (decoded, _) ->
          Array.for_all2 instr_equiv program decoded))

let suite =
  ( "encoding",
    [
      Alcotest.test_case "single instructions" `Quick test_single_instructions;
      Alcotest.test_case "branch hint" `Quick test_branch_hint_roundtrip;
      Alcotest.test_case "hint pc 0" `Quick test_hint_zero_pc_roundtrips;
      Alcotest.test_case "errors reported" `Quick test_errors_reported;
      Alcotest.test_case "all workloads encode" `Quick test_all_workloads_encode;
      Alcotest.test_case "gadgets encode" `Quick test_gadgets_encode;
      Alcotest.test_case "decoded program runs" `Quick test_decoded_program_runs_identically;
      Alcotest.test_case "code size" `Quick test_code_size;
      QCheck_alcotest.to_alcotest ~long:false prop_roundtrip_random_programs;
    ] )
