module Ir = Levioso_ir.Ir
module Emulator = Levioso_ir.Emulator
module Lexer = Levioso_lang.Lexer
module Lparser = Levioso_lang.Lparser
module Ast = Levioso_lang.Ast
module Resolve = Levioso_lang.Resolve
module Compiler = Levioso_lang.Compiler
module Interp = Levioso_lang.Interp
module Api = Levioso_core.Levioso_api
module Config = Levioso_uarch.Config

(* run a Lev program and read back the word main stored at [addr] *)
let run_and_read ?(mem_init = fun _ -> ()) ?(addr = 64) source =
  let program = Compiler.compile_exn source in
  let state =
    Emulator.run_program ~mem_words:65536
      ~init:(fun s -> mem_init s.Emulator.mem)
      program
  in
  state.Emulator.mem.(addr)

(* --- lexer ----------------------------------------------------------- *)

let tokens_of source =
  match Lexer.tokenize source with
  | Ok located -> List.map (fun l -> l.Lexer.token) located
  | Error msg -> Alcotest.fail msg

let test_lexer_basics () =
  Alcotest.(check bool) "operators" true
    (tokens_of "a <= b << 2 != c"
    = [
        Lexer.Ident "a"; Lexer.Le; Lexer.Ident "b"; Lexer.Shl; Lexer.Int 2;
        Lexer.Ne; Lexer.Ident "c"; Lexer.Eof;
      ]);
  Alcotest.(check bool) "keywords vs idents" true
    (tokens_of "if iffy fn fnord"
    = [ Lexer.Kw_if; Lexer.Ident "iffy"; Lexer.Kw_fn; Lexer.Ident "fnord"; Lexer.Eof ])

let test_lexer_comments_and_positions () =
  match Lexer.tokenize "var x = 1; // comment\nx = 2;" with
  | Error msg -> Alcotest.fail msg
  | Ok located ->
    let second_line = List.filter (fun l -> l.Lexer.line = 2) located in
    Alcotest.(check bool) "comment skipped, second line found" true
      (List.length second_line >= 3)

let test_lexer_rejects_garbage () =
  Alcotest.(check bool) "rejects @" true (Result.is_error (Lexer.tokenize "var @ = 1;"))

(* --- parser ---------------------------------------------------------- *)

let parse_expr s =
  match Lparser.parse_expr s with
  | Ok e -> e
  | Error msg -> Alcotest.fail msg

let test_precedence () =
  Alcotest.(check string) "mul binds tighter"
    "(1 + (2 * 3))"
    (Ast.expr_to_string (parse_expr "1 + 2 * 3"));
  Alcotest.(check string) "left assoc"
    "((8 - 4) - 2)"
    (Ast.expr_to_string (parse_expr "8 - 4 - 2"));
  Alcotest.(check string) "comparison below arithmetic"
    "((a + 1) < (b * 2))"
    (Ast.expr_to_string (parse_expr "a + 1 < b * 2"));
  Alcotest.(check string) "logic lowest"
    "((a < b) && (c == d))"
    (Ast.expr_to_string (parse_expr "a < b && c == d"));
  Alcotest.(check string) "parens override"
    "((1 + 2) * 3)"
    (Ast.expr_to_string (parse_expr "(1 + 2) * 3"));
  Alcotest.(check string) "unary"
    "((-a) + (!b))"
    (Ast.expr_to_string (parse_expr "-a + !b"));
  Alcotest.(check string) "shift between compare and add"
    "((1 << (2 + 3)) < x)"
    (Ast.expr_to_string (parse_expr "1 << 2 + 3 < x"))

let test_parse_errors () =
  let bad = [ "fn main( { }"; "fn main() { var = 1; }"; "fn main() { x 1; }";
              "fn main() { if x { } }"; "fn main() { store(1); }" ] in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects: " ^ src) true
        (Result.is_error (Lparser.parse src)))
    bad

(* --- resolver -------------------------------------------------------- *)

let resolve_errors source =
  match Lparser.parse source with
  | Error msg -> [ "parse: " ^ msg ]
  | Ok ast -> (
    match Resolve.check ast with
    | Ok () -> []
    | Error errors -> errors)

let expect_resolve_error source fragment =
  let errors = resolve_errors source in
  let found =
    List.exists
      (fun e ->
        let nl = String.length fragment and hl = String.length e in
        let rec scan i = i + nl <= hl && (String.sub e i nl = fragment || scan (i + 1)) in
        nl <= hl && scan 0)
      errors
  in
  Alcotest.(check bool)
    (Printf.sprintf "expected error containing %S, got [%s]" fragment
       (String.concat "; " errors))
    true found

let test_resolver () =
  expect_resolve_error "fn f() { }" "no main";
  expect_resolve_error "fn main(x) { }" "main takes no parameters";
  expect_resolve_error "fn main() { x = 1; }" "undeclared variable x";
  expect_resolve_error "fn main() { var x = 1; var x = 2; }" "duplicate declaration";
  expect_resolve_error "fn main() { var y = f(); }" "undefined function f";
  expect_resolve_error "fn main() { var y = g(1); } fn g(a, b) { return a; }"
    "expects 2 argument(s)";
  expect_resolve_error "fn main() { f(); } fn f() { f(); }" "recursion";
  expect_resolve_error "fn main() { f(); } fn f() { g(); } fn g() { f(); }"
    "recursion";
  expect_resolve_error "fn main() { return 3; }" "main cannot return a value";
  expect_resolve_error "fn main() { } fn load(x) { }" "shadows a builtin";
  expect_resolve_error "fn main() { } fn f(a, a) { }" "duplicate parameter"

let test_resolver_accepts_good_program () =
  Alcotest.(check (list string)) "clean" []
    (resolve_errors
       "fn main() { var t = twice(3); store(64, t); } fn twice(x) { return x + x; }")

(* --- codegen / end-to-end semantics ---------------------------------- *)

let test_arithmetic () =
  Alcotest.(check int) "arith" ((7 * 6) + (9 / 2) - (9 mod 4))
    (run_and_read "fn main() { store(64, 7 * 6 + 9 / 2 - 9 % 4); }")

let test_bitwise_and_shift () =
  Alcotest.(check int) "bits"
    ((12 land 10) lor (1 lsl 4) lxor 3)
    (run_and_read "fn main() { store(64, 12 & 10 | 1 << 4 ^ 3); }")

let test_comparisons_yield_bits () =
  Alcotest.(check int) "true" 1 (run_and_read "fn main() { store(64, 3 < 4); }");
  Alcotest.(check int) "false" 0 (run_and_read "fn main() { store(64, 4 < 3); }")

let test_logic_and_not () =
  Alcotest.(check int) "and" 1
    (run_and_read "fn main() { store(64, 5 && -2); }");
  Alcotest.(check int) "or" 1 (run_and_read "fn main() { store(64, 0 || 7); }");
  Alcotest.(check int) "not" 1 (run_and_read "fn main() { store(64, !0); }");
  Alcotest.(check int) "mixed" 1
    (run_and_read "fn main() { var a = 3; store(64, a > 1 && a < 5); }")

let test_if_else () =
  let src branchy =
    Printf.sprintf
      "fn main() { var x = %d; if (x > 10) { store(64, 1); } else { store(64, 2); } }"
      branchy
  in
  Alcotest.(check int) "then" 1 (run_and_read (src 50));
  Alcotest.(check int) "else" 2 (run_and_read (src 5))

let test_while_loop () =
  Alcotest.(check int) "sum 1..100" 5050
    (run_and_read
       "fn main() { var i = 1; var sum = 0; while (i <= 100) { sum = sum + i; i = i + 1; } store(64, sum); }")

let test_nested_control () =
  (* count primes below 50 with trial division *)
  let src =
    {|
      fn main() {
        var n = 2;
        var primes = 0;
        while (n < 50) {
          var d = 2;
          var composite = 0;
          while (d * d <= n) {
            if (n % d == 0) { composite = 1; d = n; }
            d = d + 1;
          }
          if (!composite) { primes = primes + 1; }
          n = n + 1;
        }
        store(64, primes);
      }
    |}
  in
  Alcotest.(check int) "15 primes below 50" 15 (run_and_read src)

let test_memory_builtins () =
  Alcotest.(check int) "load/store chain" 99
    (run_and_read
       ~mem_init:(fun mem -> mem.(1000) <- 98)
       "fn main() { var v = load(1000); store(64, v + 1); }")

let test_flush_address_runs_its_calls () =
  (* a flush discards no architectural effect of its address expression:
     the call's store lands in both the compiled and the interpreted
     memory *)
  let src =
    {|
      fn mark(x) { store(64, x); return x; }
      fn main() { flush(1024 + (mark(7) & 255)); }
    |}
  in
  let compiled =
    (Emulator.run_program ~mem_words:65536
       ~init:(fun _ -> ())
       (Compiler.compile_exn src))
      .Emulator.mem
  in
  let interpreted = Array.make 65536 0 in
  (match Lparser.parse src with
  | Ok ast -> Interp.run ~mem:interpreted ast
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "compiled store" 7 compiled.(64);
  Alcotest.(check int) "interpreted store" 7 interpreted.(64);
  Alcotest.(check bool) "memories agree" true (compiled = interpreted)

let test_functions_and_calls () =
  let src =
    {|
      fn square(x) { return x * x; }
      fn sum_of_squares(a, b) { return square(a) + square(b); }
      fn main() { store(64, sum_of_squares(3, 4)); }
    |}
  in
  Alcotest.(check int) "3^2+4^2" 25 (run_and_read src)

let test_early_return () =
  let src =
    {|
      fn classify(x) {
        if (x < 0) { return 0 - 1; }
        if (x == 0) { return 0; }
        return 1;
      }
      fn main() { store(64, classify(0 - 5) + classify(0) * 10 + classify(7) * 100); }
    |}
  in
  Alcotest.(check int) "sign cases" (-1 + 0 + 100) (run_and_read src)

let test_function_without_return_yields_zero () =
  Alcotest.(check int) "implicit 0" 0
    (run_and_read "fn nothing() { var x = 1; } fn main() { store(64, nothing()); }")

let test_halt_statement () =
  Alcotest.(check int) "halt skips trailing code" 1
    (run_and_read "fn main() { store(64, 1); halt; store(64, 2); }")

let test_register_exhaustion_reported () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "fn main() { ";
  for i = 0 to 40 do
    Buffer.add_string b (Printf.sprintf "var v%d = %d; " i i)
  done;
  Buffer.add_string b "}";
  match Compiler.compile (Buffer.contents b) with
  | Error msg ->
    Alcotest.(check bool) "mentions registers" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected register exhaustion"

let test_compiled_code_is_levioso_ready () =
  (* the whole pipeline: source -> IR -> annotate -> secure simulation *)
  let src =
    {|
      fn main() {
        var i = 0;
        var hits = 0;
        while (i < 200) {
          var v = load(4096 + i);
          if (v % 3 == 0) { hits = hits + load(8192 + i); }
          i = i + 1;
        }
        store(64, hits);
      }
    |}
  in
  let program = Compiler.compile_exn src in
  let annotation = Levioso_core.Annotation.analyze program in
  Alcotest.(check (float 1e-9)) "full reconvergence" 1.0
    (Levioso_core.Annotation.coverage annotation);
  let mem_init mem =
    for i = 0 to 199 do
      mem.(4096 + i) <- i;
      mem.(8192 + i) <- i * 2
    done
  in
  List.iter
    (fun policy ->
      match
        Api.check_against_emulator
          ~config:{ Config.default with Config.mem_words = 65536 }
          ~mem_init ~policy program
      with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (policy ^ ": " ^ msg))
    [ "unsafe"; "delay"; "levioso" ]

let suite =
  ( "lang",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer comments/positions" `Quick test_lexer_comments_and_positions;
      Alcotest.test_case "lexer rejects garbage" `Quick test_lexer_rejects_garbage;
      Alcotest.test_case "operator precedence" `Quick test_precedence;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "resolver diagnostics" `Quick test_resolver;
      Alcotest.test_case "resolver accepts" `Quick test_resolver_accepts_good_program;
      Alcotest.test_case "arithmetic" `Quick test_arithmetic;
      Alcotest.test_case "bitwise and shift" `Quick test_bitwise_and_shift;
      Alcotest.test_case "comparisons" `Quick test_comparisons_yield_bits;
      Alcotest.test_case "logic and not" `Quick test_logic_and_not;
      Alcotest.test_case "if/else" `Quick test_if_else;
      Alcotest.test_case "while loop" `Quick test_while_loop;
      Alcotest.test_case "nested control (primes)" `Quick test_nested_control;
      Alcotest.test_case "memory builtins" `Quick test_memory_builtins;
      Alcotest.test_case "flush address runs its calls" `Quick
        test_flush_address_runs_its_calls;
      Alcotest.test_case "functions and calls" `Quick test_functions_and_calls;
      Alcotest.test_case "early return" `Quick test_early_return;
      Alcotest.test_case "implicit zero return" `Quick test_function_without_return_yields_zero;
      Alcotest.test_case "halt statement" `Quick test_halt_statement;
      Alcotest.test_case "register exhaustion" `Quick test_register_exhaustion_reported;
      Alcotest.test_case "source to secure simulation" `Quick test_compiled_code_is_levioso_ready;
    ] )
