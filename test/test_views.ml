(* Direct tests of the pipeline's policy-facing view functions — the
   contract every defense is built on. *)

module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline

let config = { Config.default with Config.mem_words = 4096 }

(* Run a program under a recording policy; [snoop] is called on every
   decode with the live pipeline. *)
let run_with_snoop src snoop =
  let program = Parser.parse_exn src in
  let policy _cfg _prog pipe =
    {
      Pipeline.always_execute_policy with
      policy_name = "snoop";
      on_decode = (fun ~seq -> snoop pipe ~seq);
    }
  in
  let pipe = Pipeline.create config ~policy program in
  Pipeline.run pipe;
  pipe

let test_decode_order_and_pc () =
  let seen = ref [] in
  let _ =
    run_with_snoop {|
      mov r1, #1
      add r2, r1, #2
      halt
    |} (fun pipe ~seq -> seen := (seq, Pipeline.pc_of pipe seq) :: !seen)
  in
  Alcotest.(check (list (pair int int)))
    "sequence numbers count up in fetch order"
    [ (0, 0); (1, 1); (2, 2) ]
    (List.rev !seen)

let test_producers_captured_at_rename () =
  let producers = ref [] in
  let _ =
    run_with_snoop
      {|
        mov r1, #5
        mov r2, #7
        add r3, r1, r2
        add r4, r3, r3
        halt
      |}
      (fun pipe ~seq ->
        (* operand slots -1 .. max_operands: the ends are out of range *)
        let slots =
          List.init (Pipeline.max_operands + 2) (fun i -> Pipeline.operand_producer pipe seq (i - 1))
        in
        producers := (seq, (Pipeline.producers_of pipe seq, slots)) :: !producers;
        Alcotest.(check int) "a seq not in flight has no producers" (-1)
          (Pipeline.operand_producer pipe (seq + 1) 0))
  in
  let find seq = fst (List.assoc seq (List.rev !producers)) in
  Alcotest.(check (list int)) "movs have no producers" [] (find 0);
  Alcotest.(check (list int)) "add reads both movs" [ 0; 1 ] (List.sort compare (find 2));
  Alcotest.(check (list int)) "second add reads the first (dedup not required)"
    [ 2 ] (List.sort_uniq compare (find 3));
  Alcotest.(check (list int)) "operand_producer by operand slot, -1 elsewhere"
    [ -1; 0; 1; -1; -1 ]
    (snd (List.assoc 2 !producers));
  Alcotest.(check (list int)) "a register read twice appears twice"
    [ -1; 2; 2; -1; -1 ]
    (snd (List.assoc 3 !producers))

let test_unresolved_branch_tracking () =
  let observed = ref None in
  let _ =
    run_with_snoop
      {|
        load r1, [r0 + #512]   ; slow: keeps the branch unresolved
        beq r1, #9, skip
        mov r2, #1
      skip:
        halt
      |}
      (fun pipe ~seq ->
        (* observe the first instruction decoded past the branch: the cold
           predictor predicts taken, so that is the skip target, fetched
           while the branch is still unresolved *)
        if Pipeline.pc_of pipe seq = 3 && !observed = None then
          observed :=
            Some
              ( Pipeline.older_unresolved_branches pipe ~seq,
                Pipeline.exists_older_unresolved_branch pipe ~seq ))
  in
  match !observed with
  | Some (branches, exists) ->
    Alcotest.(check (list int)) "the beq (seq 1) is unresolved" [ 1 ] branches;
    Alcotest.(check bool) "exists agrees" true exists
  | None -> Alcotest.fail "pc 3 never decoded"

let test_is_unresolved_branch_classification () =
  let checks = ref [] in
  let _ =
    run_with_snoop
      {|
        load r1, [r0 + #512]
        beq r1, #1, skip
        mov r2, #1
      skip:
        halt
      |}
      (fun pipe ~seq ->
        if Pipeline.pc_of pipe seq = 3 && !checks = [] then
          checks :=
            [
              ("branch seq is unresolved at decode past it", Pipeline.is_unresolved_branch pipe 1);
              ("load is not a branch", Pipeline.is_unresolved_branch pipe 0);
              ("committed/unknown seq is false", Pipeline.is_unresolved_branch pipe 999);
            ])
  in
  List.iter
    (fun (msg, v) ->
      let expected = msg = "branch seq is unresolved at decode past it" in
      Alcotest.(check bool) msg expected v)
    !checks;
  Alcotest.(check bool) "observed" true (!checks <> [])

let test_load_address_if_ready () =
  let results = ref [] in
  let _ =
    run_with_snoop
      {|
        mov r1, #100
        load r2, [r1 + #28]    ; address needs r1
        load r3, [r0 + #64]    ; address ready immediately
        halt
      |}
      (fun pipe ~seq ->
        if Pipeline.pc_of pipe seq = 2 then
          (* at decode of the second load, record addresses of both *)
          results :=
            [
              ("imm-addressed load", Pipeline.load_address_if_ready pipe seq);
              ("non-load", Pipeline.load_address_if_ready pipe 0);
              ("imm-addressed load, raw", Some (Pipeline.load_address pipe seq));
              ("non-load, raw", Some (Pipeline.load_address pipe 0));
            ])
  in
  Alcotest.(check (option int)) "raw query: the address" (Some 64)
    (List.assoc "imm-addressed load, raw" !results);
  Alcotest.(check (option int)) "raw query: -1 for a non-load" (Some (-1))
    (List.assoc "non-load, raw" !results);
  (match List.assoc "imm-addressed load" !results with
  | Some addr -> Alcotest.(check int) "masked address" 64 addr
  | None -> Alcotest.fail "address should be computable");
  Alcotest.(check bool) "non-load is None" true
    (List.assoc "non-load" !results = None)

let test_is_transmitter_classification () =
  let t = Pipeline.is_transmitter in
  Alcotest.(check bool) "load" true (t (Ir.Load { dst = 1; base = Ir.Imm 0; off = Ir.Imm 0 }));
  Alcotest.(check bool) "flush" true (t (Ir.Flush { base = Ir.Imm 0; off = Ir.Imm 0 }));
  Alcotest.(check bool) "store (commits non-speculatively)" false
    (t (Ir.Store { base = Ir.Imm 0; off = Ir.Imm 0; src = Ir.Imm 0 }));
  Alcotest.(check bool) "alu" false
    (t (Ir.Alu { op = Ir.Add; dst = 1; a = Ir.Imm 0; b = Ir.Imm 0 }));
  Alcotest.(check bool) "branch" false
    (t (Ir.Branch { cmp = Ir.Eq; a = Ir.Imm 0; b = Ir.Imm 0; target = 0 }));
  Alcotest.(check bool) "rdcycle" false (t (Ir.Rdcycle { dst = 1; after = Ir.Imm 0 }))

let test_oldest_and_next_seq () =
  let program = Parser.parse_exn "mov r1, #1\nhalt" in
  let pipe = Pipeline.create config ~policy:(fun _ _ _ -> Pipeline.always_execute_policy) program in
  Alcotest.(check int) "fresh oldest" 0 (Pipeline.oldest_seq pipe);
  Alcotest.(check int) "fresh next" 0 (Pipeline.next_seq pipe);
  Pipeline.run pipe;
  Alcotest.(check bool) "all committed" true
    (Pipeline.oldest_seq pipe = Pipeline.next_seq pipe)

let test_tracer_event_stream () =
  let program = Parser.parse_exn {|
      mov r1, #1
      beq r1, #1, skip
      mov r2, #9
    skip:
      halt
    |} in
  let events = ref [] in
  let pipe =
    Pipeline.create config ~policy:(fun _ _ _ -> Pipeline.always_execute_policy)
      program
  in
  Pipeline.set_tracer pipe (fun ~cycle event -> events := (cycle, event) :: !events);
  Pipeline.run pipe;
  let events = List.rev !events in
  let count f = List.length (List.filter (fun (_, e) -> f e) events) in
  (* mov, beq (taken), halt commit; the skipped mov r2 never does *)
  Alcotest.(check int) "3 commits (wrong-path work excluded)" 3
    (count (function Pipeline.Committed _ -> true | _ -> false));
  Alcotest.(check bool) "at least one resolve" true
    (count (function Pipeline.Branch_resolved _ -> true | _ -> false) >= 1);
  Alcotest.(check bool) "cycles are non-decreasing" true
    (let rec mono = function
       | (a, _) :: ((b, _) :: _ as rest) -> a <= b && mono rest
       | _ -> true
     in
     mono events);
  (* every event renders *)
  List.iter (fun (_, e) ->
      Alcotest.(check bool) "prints" true
        (String.length (Pipeline.event_to_string e) > 0))
    events

let suite =
  ( "pipeline-views",
    [
      Alcotest.test_case "decode order" `Quick test_decode_order_and_pc;
      Alcotest.test_case "producers at rename" `Quick test_producers_captured_at_rename;
      Alcotest.test_case "unresolved branches" `Quick test_unresolved_branch_tracking;
      Alcotest.test_case "branch classification" `Quick test_is_unresolved_branch_classification;
      Alcotest.test_case "load address view" `Quick test_load_address_if_ready;
      Alcotest.test_case "transmitter classification" `Quick test_is_transmitter_classification;
      Alcotest.test_case "oldest/next seq" `Quick test_oldest_and_next_seq;
      Alcotest.test_case "tracer event stream" `Quick test_tracer_event_stream;
    ] )
