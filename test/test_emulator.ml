module Ir = Levioso_ir.Ir
module Emulator = Levioso_ir.Emulator
module Parser = Levioso_ir.Parser

let test_r0_hardwired () =
  let p = Parser.parse_exn {|
    add r0, r0, #7
    add r1, r0, #1
    halt
  |} in
  let s = Emulator.run_program p in
  Alcotest.(check int) "r0 stays 0 so r1 = 1" 1 s.Emulator.regs.(1)

let test_address_masking () =
  (* Addresses wrap modulo memory size instead of faulting. *)
  let p = Parser.parse_exn {|
    store [r0 + #4], #77
    mov r1, #1048580
    load r2, [r1 + #0]
    halt
  |} in
  let s = Emulator.run_program ~mem_words:1048576 p in
  Alcotest.(check int) "wrapped load" 77 s.Emulator.regs.(2)

let test_negative_address_masks () =
  let p = Parser.parse_exn {|
    mov r1, #-4
    store [r1 + #0], #5
    load r2, [r1 + #0]
    halt
  |} in
  let s = Emulator.run_program ~mem_words:65536 p in
  Alcotest.(check int) "negative wraps" 5 s.Emulator.regs.(2)

let test_flush_is_noop () =
  let p = Parser.parse_exn {|
    store [r0 + #8], #3
    flush [r0 + #8]
    load r1, [r0 + #8]
    halt
  |} in
  let s = Emulator.run_program p in
  Alcotest.(check int) "flush does not change memory" 3 s.Emulator.regs.(1)

let test_retired_counting () =
  let p = Parser.parse_exn {|
    add r1, r1, #1
    add r1, r1, #1
    halt
  |} in
  let s = Emulator.run_program p in
  Alcotest.(check int) "3 retired" 3 s.Emulator.retired

let test_out_of_fuel () =
  let p = Parser.parse_exn {|
    spin:
      jump spin
  |} in
  Alcotest.check_raises "diverges" Emulator.Out_of_fuel (fun () ->
      ignore (Emulator.run_program ~fuel:1000 p))

let test_step_after_halt_is_noop () =
  let p = Parser.parse_exn "halt" in
  let s = Emulator.create p in
  Emulator.run s;
  let retired = s.Emulator.retired in
  Emulator.step s;
  Alcotest.(check int) "no further retirement" retired s.Emulator.retired

let test_branch_both_directions () =
  let p =
    Parser.parse_exn
      {|
        mov r1, #5
        bge r1, #5, yes
        mov r2, #0
        halt
      yes:
        mov r2, #1
        halt
      |}
  in
  let s = Emulator.run_program p in
  Alcotest.(check int) "taken" 1 s.Emulator.regs.(2)

let test_div_semantics_match_alu () =
  let p = Parser.parse_exn {|
    mov r1, #-7
    div r2, r1, #2
    rem r3, r1, #2
    halt
  |} in
  let s = Emulator.run_program p in
  Alcotest.(check int) "ocaml division" (-3) s.Emulator.regs.(2);
  Alcotest.(check int) "ocaml remainder" (-1) s.Emulator.regs.(3)

(* Both evaluators — [Ir.eval_cmp] behind {!Emulator.step} and the
   decoded fast path behind {!Emulator.run_steps} — against
   [Int.compare], for every comparison, on both set-compare ALU ops and
   branches, at the extremes of the int range. *)
let test_compares_match_int_compare () =
  let values = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ] in
  let cmps =
    [
      (Ir.Eq, fun c -> c = 0);
      (Ir.Ne, fun c -> c <> 0);
      (Ir.Lt, fun c -> c < 0);
      (Ir.Le, fun c -> c <= 0);
      (Ir.Gt, fun c -> c > 0);
      (Ir.Ge, fun c -> c >= 0);
    ]
  in
  List.iter
    (fun (cmp, holds) ->
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let expected = holds (Int.compare x y) in
              let label = Printf.sprintf "%s %d %d" (Ir.cmp_to_string cmp) x y in
              Alcotest.(check bool) (label ^ ": eval_cmp") expected
                (Ir.eval_cmp cmp x y);
              (* r3 <- set-compare; r4 <- 1 iff the branch is taken *)
              let program =
                [|
                  Ir.Alu { op = Ir.Set cmp; dst = 3; a = Ir.Imm x; b = Ir.Imm y };
                  Ir.Branch { cmp; a = Ir.Imm x; b = Ir.Imm y; target = 4 };
                  Ir.Alu { op = Ir.Add; dst = 4; a = Ir.Imm 0; b = Ir.Imm 0 };
                  Ir.Jump { target = 5 };
                  Ir.Alu { op = Ir.Add; dst = 4; a = Ir.Imm 1; b = Ir.Imm 0 };
                  Ir.Halt;
                |]
              in
              let bit b = if b then 1 else 0 in
              let stepped = Emulator.create ~memory:(Array.make 16 0) program in
              Emulator.run stepped;
              let batched = Emulator.create ~memory:(Array.make 16 0) program in
              ignore (Emulator.run_steps batched 10 : int);
              List.iter
                (fun (tier, st) ->
                  Alcotest.(check int) (label ^ ": set, " ^ tier) (bit expected)
                    st.Emulator.regs.(3);
                  Alcotest.(check int) (label ^ ": branch, " ^ tier) (bit expected)
                    st.Emulator.regs.(4))
                [ ("step", stepped); ("run_steps", batched) ])
            values)
        values)
    cmps

let suite =
  ( "emulator",
    [
      Alcotest.test_case "r0 hardwired" `Quick test_r0_hardwired;
      Alcotest.test_case "address masking" `Quick test_address_masking;
      Alcotest.test_case "negative address" `Quick test_negative_address_masks;
      Alcotest.test_case "flush is architectural noop" `Quick test_flush_is_noop;
      Alcotest.test_case "retired counting" `Quick test_retired_counting;
      Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
      Alcotest.test_case "step after halt" `Quick test_step_after_halt_is_noop;
      Alcotest.test_case "branch directions" `Quick test_branch_both_directions;
      Alcotest.test_case "div semantics" `Quick test_div_semantics_match_alu;
      Alcotest.test_case "compares match Int.compare (both tiers)" `Quick
        test_compares_match_int_compare;
    ] )
