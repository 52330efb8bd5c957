module Ir = Levioso_ir.Ir
module Gadget = Levioso_attack.Gadget
module Harness = Levioso_attack.Harness
module Registry = Levioso_core.Registry

let check_verdict name expected verdict =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %s)" name (Harness.verdict_to_string verdict))
    expected (Harness.leaked verdict)

(* Every roster gadget, paired with whether it carries the in-program
   rdcycle probe: plain first, then timed. *)
let gadgets ~secret =
  List.concat_map
    (fun (_, (make : Gadget.maker)) ->
      [ (false, make ~secret ()); (true, make ~timing:true ~secret ()) ])
    Gadget.roster

let test_gadgets_validate () =
  List.iter
    (fun (_, (g : Gadget.t)) ->
      match Ir.validate g.program with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (g.name ^ ": " ^ msg))
    (gadgets ~secret:1)

(* The paper's security table (Table 2), policy x gadget: a gadget leaks
   exactly when the Registry's threat-model table says its policy does not
   stop the gadget's secret class. *)
let check_security_matrix ~timed ~secret =
  List.iter
    (fun policy ->
      List.iter
        (fun (_, (make : Gadget.maker)) ->
          let g = make ~timing:timed ~secret () in
          check_verdict
            (Printf.sprintf "%s vs %s" policy g.name)
            (not (Registry.stops policy g.secret_class))
            ((if timed then Harness.run_timed else Harness.run) ~policy g))
        Gadget.roster)
    Registry.names

let test_security_matrix_cache_probe () =
  check_security_matrix ~timed:false ~secret:42

let test_security_matrix_in_program_timing () =
  check_security_matrix ~timed:true ~secret:27

let test_recovers_every_secret_value () =
  (* no aliasing between secret values and probe lines *)
  List.iter
    (fun secret ->
      match Harness.run ~policy:"unsafe" (Gadget.bounds_check_bypass ~secret ()) with
      | Harness.Recovered v -> Alcotest.(check int) "exact value" secret v
      | (Harness.Wrong_guess _ | Harness.No_signal) as v ->
        Alcotest.fail (Printf.sprintf "secret %d: %s" secret (Harness.verdict_to_string v)))
    [ 0; 1; 31; 62; 63 ]

let test_accuracy_endpoints () =
  (* every secret recovered where the threat-model table says the policy
     does not stop register secrets, none where it does *)
  List.iter
    (fun policy ->
      List.iter
        (fun secret ->
          check_verdict
            (Printf.sprintf "%s, secret %d" policy secret)
            (not (Registry.stops policy Registry.Register_in_region))
            (Harness.run ~policy (Gadget.register_secret ~secret ())))
        [ 5; 13; 27; 42; 60 ])
    [ "unsafe"; "stt"; "levioso" ]

let test_no_architectural_secret_exposure () =
  (* No gadget ever architecturally writes its secret anywhere the
     attacker could read: on the emulator (no speculation at all) two
     secrets retire the same count and leave memory images that differ in
     one word only, the planted secret itself. *)
  let module Emulator = Levioso_ir.Emulator in
  let run (g : Gadget.t) =
    Emulator.run_program ~mem_words:(1 lsl 20)
      ~init:(fun s -> g.mem_init s.Emulator.mem)
      g.program
  in
  List.iter2
    (fun (timed, (g : Gadget.t)) (_, g') ->
      let name = g.name ^ if timed then " (timed)" else "" in
      let a = run g and b = run g' in
      Alcotest.(check bool) (name ^ ": halts") true a.halted;
      Alcotest.(check int) (name ^ ": retired") a.retired b.retired;
      let differing = ref [] in
      Array.iteri
        (fun i v -> if v <> b.mem.(i) then differing := (v, b.mem.(i)) :: !differing)
        a.mem;
      Alcotest.(check (list (pair int int)))
        (name ^ ": only the secret's word differs")
        [ (5, 42) ] !differing)
    (gadgets ~secret:5) (gadgets ~secret:42)

let test_attack_works_across_predictors () =
  (* the attack trains whatever predictor the front end has *)
  List.iter
    (fun predictor ->
      let config = { Levioso_uarch.Config.default with Levioso_uarch.Config.predictor } in
      check_verdict
        (Levioso_uarch.Config.predictor_kind_to_string predictor ^ " leaks under unsafe")
        true
        (Harness.run ~config ~policy:"unsafe" (Gadget.bounds_check_bypass ~secret:17 ())))
    (* always-taken is omitted: it never steers down the fall-through
       wrong path this gadget shape needs *)
    [
      Levioso_uarch.Config.Bimodal;
      Levioso_uarch.Config.Gshare;
      Levioso_uarch.Config.Tage;
    ]

let test_untrained_attack_fails () =
  (* without training the cold predictor does not steer fetch into the
     transmit path *)
  check_verdict "no training, no leak" false
    (Harness.run ~policy:"unsafe" (Gadget.bounds_check_bypass ~training_rounds:0 ~secret:17 ()))

let test_levioso_holds_with_prefetcher () =
  (* a prefetcher widens the channel (neighbour lines get dragged in), but
     gating the demand access gates the prefetch it would trigger too *)
  let config =
    { Levioso_uarch.Config.default with Levioso_uarch.Config.next_line_prefetch = true }
  in
  check_verdict "levioso holds with prefetch" false
    (Harness.run ~config ~policy:"levioso" (Gadget.bounds_check_bypass ~secret:17 ()));
  check_verdict "dom holds with prefetch" false
    (Harness.run ~config ~policy:"dom" (Gadget.register_secret ~secret:17 ()))

let suite =
  ( "attack",
    [
      Alcotest.test_case "gadgets validate" `Quick test_gadgets_validate;
      Alcotest.test_case "security matrix (cache probe)" `Quick
        test_security_matrix_cache_probe;
      Alcotest.test_case "security matrix (in-program timing)" `Quick
        test_security_matrix_in_program_timing;
      Alcotest.test_case "recovers every secret value" `Quick
        test_recovers_every_secret_value;
      Alcotest.test_case "accuracy endpoints" `Quick test_accuracy_endpoints;
      Alcotest.test_case "no architectural exposure" `Quick
        test_no_architectural_secret_exposure;
      Alcotest.test_case "attack across predictors" `Quick test_attack_works_across_predictors;
      Alcotest.test_case "untrained attack fails" `Quick test_untrained_attack_fails;
      Alcotest.test_case "defenses hold with prefetcher" `Quick test_levioso_holds_with_prefetcher;
    ] )
