module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Emulator = Levioso_ir.Emulator
module Encoding = Levioso_ir.Encoding
module Annotation = Levioso_core.Annotation
module Registry = Levioso_core.Registry
module Config = Levioso_uarch.Config
module Compiler = Levioso_lang.Compiler
module Lparser = Levioso_lang.Lparser
module Interp = Levioso_lang.Interp
module Opt = Levioso_opt.Opt

type fail = {
  detail : string;
  program : Ir.program;
  source : string option;
  still_fails : (Ir.program -> bool) option;
  leak : (Ir.program -> string option) option;
}

type verdict =
  | Pass
  | Fail of fail

type outcome = {
  verdict : verdict;
  extras : (string * int) list;
}

type t = {
  name : string;
  describe : string;
  run : config:Config.t -> seed:int -> outcome;
}

let pass = { verdict = Pass; extras = [] }

let failure ?source ?still_fails ?leak program detail =
  { verdict = Fail { detail; program; source; still_fails; leak }; extras = [] }

(* Fuel-guarded emulation.  [Error] means the program itself does not
   terminate within the budget — possible only for shrinker-mangled
   candidates (generated programs terminate by construction), and never
   a policy bug, so callers treat it as "not a reproduction". *)
let emulate ~mem_words ~mem_init program =
  match
    Emulator.run_program ~mem_words ~fuel:2_000_000
      ~init:(fun st -> mem_init st.Emulator.mem)
      program
  with
  | st -> Ok st
  | exception Emulator.Out_of_fuel -> Error "emulator out of fuel"

(* ------------------------------------------------------------------ *)
(* arch-diff                                                           *)
(* ------------------------------------------------------------------ *)

(* Policies that block every speculative transmitter outright: under
   them a non-zero squashed-transmitter count is itself a bug.  The
   selective policies (dom, stt, nda, the levioso family) deliberately
   let safe transmitters run, so the counter is meaningless there. *)
let transmit_checked = [ "fence"; "delay" ]

let policy_verdict ~config ~mem_init ~reference ~policy program =
  match Observe.run ~config ~policy ~mem_init program with
  | obs -> (
    match Observe.against_emulator ~reference obs with
    | Ok ()
      when List.mem policy transmit_checked
           && obs.Observe.wrong_path_transmits > 0 ->
      Error
        (Printf.sprintf "%d wrong-path transmit(s) under a total-blocking policy"
           obs.Observe.wrong_path_transmits)
    | r -> r)
  | exception e -> Error ("pipeline raised " ^ Printexc.to_string e)

let arch_diff =
  let run ~config ~seed =
    let program = Gen.random_program seed in
    let mem_init = Gen.mem_init seed in
    let mem_words = config.Config.mem_words in
    match emulate ~mem_words ~mem_init program with
    | Error msg -> failure program msg
    | Ok reference ->
      let rec loop = function
        | [] -> pass
        | policy :: rest -> (
          match policy_verdict ~config ~mem_init ~reference ~policy program with
          | Ok () -> loop rest
          | Error detail ->
            let still_fails p =
              match emulate ~mem_words ~mem_init p with
              | Error _ -> false
              | Ok reference ->
                Result.is_error
                  (policy_verdict ~config ~mem_init ~reference ~policy p)
            in
            failure ~still_fails program
              (Printf.sprintf "policy %s: %s" policy detail))
      in
      loop Registry.names
  in
  {
    name = "arch-diff";
    describe = "pipeline vs. architectural emulator, every policy";
    run;
  }

(* ------------------------------------------------------------------ *)
(* lang-diff                                                           *)
(* ------------------------------------------------------------------ *)

let first_mem_diff a b =
  let rec go i =
    if i >= Array.length a then None
    else if a.(i) <> b.(i) then Some i
    else go (i + 1)
  in
  go 0

let lang_diff =
  let run ~config:_ ~seed =
    let source = Gen_lev.random_source seed in
    let mem_words = Gen_lev.mem_words in
    let mem_init mem = Gen_lev.init_mem seed mem in
    let run_ir p =
      match emulate ~mem_words ~mem_init p with
      | Ok st -> Ok st.Emulator.mem
      | Error _ as e -> e
    in
    match Compiler.compile source with
    | Error msg -> failure ~source [| Ir.Halt |] ("compile failed: " ^ msg)
    | Ok ir -> (
      match Lparser.parse source with
      | Error msg ->
        failure ~source [| Ir.Halt |] ("printed source re-parse failed: " ^ msg)
      | Ok ast -> (
        let mem_ref = Array.make mem_words 0 in
        mem_init mem_ref;
        match Interp.run ~mem:mem_ref ast with
        | exception Interp.Stuck msg ->
          failure ~source ir ("interpreter stuck: " ^ msg)
        | () -> (
          match run_ir ir with
          | Error msg -> failure ~source ir msg
          | Ok mem_ir -> (
            match first_mem_diff mem_ref mem_ir with
            | Some addr ->
              failure ~source ir
                (Printf.sprintf
                   "compiled code diverges from interpreter at mem[%d]: %d vs %d"
                   addr mem_ref.(addr) mem_ir.(addr))
            | None -> (
              let still_fails p =
                match (run_ir p, run_ir (Opt.optimize p)) with
                | Ok a, Ok b -> a <> b
                | _ -> false
              in
              match run_ir (Opt.optimize ir) with
              | Error msg -> failure ~source ~still_fails ir ("optimized: " ^ msg)
              | Ok mem_opt -> (
                match first_mem_diff mem_ir mem_opt with
                | Some addr ->
                  failure ~source ~still_fails ir
                    (Printf.sprintf
                       "optimizer changed architectural memory at mem[%d]: %d vs %d"
                       addr mem_ir.(addr) mem_opt.(addr))
                | None -> pass))))))
  in
  {
    name = "lang-diff";
    describe = "Lev interpreter vs. compiled (and optimized) IR";
    run;
  }

(* ------------------------------------------------------------------ *)
(* round trips                                                         *)
(* ------------------------------------------------------------------ *)

let text_ok program =
  let text = Ir.program_to_string program in
  match Parser.parse text with
  | Error msg -> Error ("re-parse failed: " ^ msg)
  | Ok p' ->
    if p' = program then Ok ()
    else
      Error
        (match
           first_mem_diff
             (Array.map Hashtbl.hash program)
             (Array.map Hashtbl.hash p')
         with
        | Some pc -> Printf.sprintf "re-parsed program differs at pc %d" pc
        | None -> "re-parsed program differs in length")

let roundtrip_text =
  let run ~config:_ ~seed =
    let program = Gen.random_program seed in
    match text_ok program with
    | Ok () -> pass
    | Error detail ->
      failure ~still_fails:(fun p -> Result.is_error (text_ok p)) program detail
  in
  {
    name = "roundtrip-text";
    describe = "program_to_string . parse = id";
    run;
  }

let encodable_instr instr =
  let seen = ref false in
  let fix = function
    | Ir.Imm 0 -> Ir.Reg Ir.zero_reg
    | Ir.Imm _ when !seen -> Ir.Reg Ir.zero_reg
    | Ir.Imm _ as op ->
      seen := true;
      op
    | Ir.Reg _ as op -> op
  in
  match instr with
  | Ir.Alu { op; dst; a; b } ->
    let a = fix a in
    let b = fix b in
    Ir.Alu { op; dst; a; b }
  | Ir.Load { dst; base; off } ->
    let base = fix base in
    let off = fix off in
    Ir.Load { dst; base; off }
  | Ir.Store { base; off; src } ->
    let base = fix base in
    let off = fix off in
    let src = fix src in
    Ir.Store { base; off; src }
  | Ir.Flush { base; off } ->
    let base = fix base in
    let off = fix off in
    Ir.Flush { base; off }
  | Ir.Rdcycle { dst; after } -> Ir.Rdcycle { dst; after = fix after }
  | Ir.Branch { cmp; a = Ir.Imm _; b = Ir.Imm n; target } ->
    (* constant-vs-constant branches are an encoder error by design *)
    Ir.Branch { cmp; a = Ir.Reg Ir.zero_reg; b = Ir.Imm n; target }
  | Ir.Branch _ | Ir.Jump _ | Ir.Halt -> instr

(* Into the encoder's input domain: at most one non-zero immediate per
   non-branch instruction, no constant-vs-constant branches. *)
let encodable program = Array.map encodable_instr program

(* decode output vs. the encodable-normalized input: exact match, or the
   encoder's documented mirroring of a constant-on-the-left branch *)
let instr_equiv expected got =
  expected = got
  ||
  match (expected, got) with
  | ( Ir.Branch { cmp; a = Ir.Imm n; b = Ir.Reg r; target },
      Ir.Branch { cmp = cmp'; a = Ir.Reg r'; b = b'; target = target' } ) ->
    cmp' = Encoding.mirror cmp && r' = r && target' = target
    && (b' = Ir.Imm n || (n = 0 && b' = Ir.Reg Ir.zero_reg))
  | _ -> false

let binary_ok program =
  let p = encodable program in
  let annot = Annotation.analyze p in
  let hints pc =
    match Annotation.hint_for annot pc with
    | Some (Annotation.Reconverges_at r) -> Some r
    | Some Annotation.No_reconvergence | None -> None
  in
  match Encoding.encode ~hints p with
  | Error { Encoding.pc; reason } ->
    Error (Printf.sprintf "encode failed at pc %d: %s" pc reason)
  | Ok words -> (
    match Encoding.decode words with
    | Error msg -> Error ("decode failed: " ^ msg)
    | Ok (p', pairs) ->
      if Array.length p' <> Array.length p then
        Error
          (Printf.sprintf "decode changed program length: %d vs %d"
             (Array.length p) (Array.length p'))
      else begin
        let bad = ref None in
        Array.iteri
          (fun pc instr ->
            if !bad = None && not (instr_equiv instr p'.(pc)) then
              bad := Some pc)
          p;
        match !bad with
        | Some pc ->
          Error
            (Printf.sprintf "pc %d: encoded %s, decoded %s" pc
               (Ir.instr_to_string p.(pc))
               (Ir.instr_to_string p'.(pc)))
        | None ->
          let expected =
            List.filter_map
              (fun pc -> Option.map (fun r -> (pc, r)) (hints pc))
              (List.init (Array.length p) Fun.id)
          in
          if List.sort compare pairs <> List.sort compare expected then
            Error "reconvergence hints did not survive the round trip"
          else Ok ()
      end)

let roundtrip_binary =
  let run ~config:_ ~seed =
    let program = Gen.random_program seed in
    match binary_ok program with
    | Ok () -> pass
    | Error detail ->
      failure
        ~still_fails:(fun p -> Result.is_error (binary_ok p))
        program detail
  in
  {
    name = "roundtrip-binary";
    describe = "binary encode . decode = id, hints included";
    run;
  }

(* ------------------------------------------------------------------ *)
(* noninterference                                                     *)
(* ------------------------------------------------------------------ *)

(* The oracle is only sound on programs whose architectural execution is
   secret-independent.  Generated cases are by construction; shrunk
   candidates must be re-checked or the shrinker would happily produce
   programs that read the secret architecturally. *)
let arch_secret_free ~mem_words case secrets_a secrets_b program =
  let run secrets =
    emulate ~mem_words
      ~mem_init:(case.Gen.mem_init ~secrets)
      program
  in
  match (run secrets_a, run secrets_b) with
  | Ok a, Ok b ->
    if a.Emulator.retired <> b.Emulator.retired then
      Error "architectural retired count depends on the secret"
    else if a.Emulator.regs <> b.Emulator.regs then
      Error "architectural registers depend on the secret"
    else begin
      let ignored addr = Array.exists (fun x -> x = addr) case.Gen.secret_addrs in
      let bad = ref None in
      Array.iteri
        (fun i v ->
          if !bad = None && (not (ignored i)) && v <> b.Emulator.mem.(i) then
            bad := Some i)
        a.Emulator.mem;
      match !bad with
      | Some addr ->
        Error
          (Printf.sprintf "architectural mem[%d] depends on the secret" addr)
      | None -> Ok ()
    end
  | Error msg, _ | _, Error msg -> Error msg

let ni_pair_diverges ~config ~policy case secrets_a secrets_b program =
  let observe secrets =
    Observe.run ~probe_addrs:case.Gen.probe_addrs ~config ~policy
      ~mem_init:(case.Gen.mem_init ~secrets)
      program
  in
  match (observe secrets_a, observe secrets_b) with
  | a, b -> (
    match Observe.equal ~ignore_mem:case.Gen.secret_addrs a b with
    | Ok () -> Ok None
    | Error msg -> Ok (Some msg))
  | exception e -> Error ("pipeline raised " ^ Printexc.to_string e)

(* Leak provenance for a noninterference failure: re-run the leaking
   policy with the flow tracer seeded from the planted secret slots, and
   render the chains whose transmit address lands on a probe line that
   actually differed between the two runs (falling back to every chain
   when the divergence was not a probe line — e.g. a cycle-count leak).
   Evaluated lazily, on the {e shrunk} reproduction. *)
let ni_leak_chain ~config ~policy case secrets_a secrets_b program =
  let secret_ranges =
    Array.to_list (Array.map (fun a -> (a, a)) case.Gen.secret_addrs)
  in
  match
    ( Observe.run_traced ~probe_addrs:case.Gen.probe_addrs ~secret_ranges
        ~config ~policy
        ~mem_init:(case.Gen.mem_init ~secrets:secrets_a)
        program,
      Observe.run ~probe_addrs:case.Gen.probe_addrs ~config ~policy
        ~mem_init:(case.Gen.mem_init ~secrets:secrets_b)
        program )
  with
  | (obs_a, ft), obs_b ->
    if Levioso_telemetry.Flowtrace.is_empty ft then None
    else begin
      let line_words = config.Config.l1.Config.line_words in
      let diff_lines = ref [] in
      Array.iteri
        (fun i base ->
          if
            i < Array.length obs_b.Observe.probe
            && obs_a.Observe.probe.(i) <> obs_b.Observe.probe.(i)
          then diff_lines := base :: !diff_lines)
        case.Gen.probe_addrs;
      let probe_filter =
        match !diff_lines with
        | [] -> None
        | lines ->
          Some
            (fun addr ->
              List.exists (fun b -> addr >= b && addr < b + line_words) lines)
      in
      Some (Levioso_telemetry.Flowtrace.render ?probe_filter ft)
    end
  | exception _ -> None

let noninterference =
  let run ~config ~seed =
    let case = Gen.ni_case seed in
    let secrets_a, secrets_b = Gen.ni_secret_pair seed case in
    let program = case.Gen.program in
    let mem_words = config.Config.mem_words in
    match arch_secret_free ~mem_words case secrets_a secrets_b program with
    | Error msg -> failure program ("generator broke its own contract: " ^ msg)
    | Ok () ->
      let rec loop = function
        | [] ->
          (* power check: the same pair must be distinguishable without a
             defense, otherwise a pass proves nothing *)
          let diverged =
            match
              ni_pair_diverges ~config ~policy:"unsafe" case secrets_a
                secrets_b program
            with
            | Ok (Some _) -> 1
            | Ok None | Error _ -> 0
          in
          { verdict = Pass; extras = [ ("ni_unsafe_divergence", diverged) ] }
        | policy :: rest -> (
          match
            ni_pair_diverges ~config ~policy case secrets_a secrets_b program
          with
          | Ok None -> loop rest
          | Ok (Some msg) ->
            let still_fails p =
              Result.is_ok
                (arch_secret_free ~mem_words case secrets_a secrets_b p)
              &&
              match
                ni_pair_diverges ~config ~policy case secrets_a secrets_b p
              with
              | Ok (Some _) -> true
              | Ok None | Error _ -> false
            in
            let leak = ni_leak_chain ~config ~policy case secrets_a secrets_b in
            failure ~still_fails ~leak program
              (Printf.sprintf "policy %s leaks the secret: %s" policy msg)
          | Error msg ->
            failure program (Printf.sprintf "policy %s: %s" policy msg))
      in
      (* Generated secrets are only ever read speculatively, so the
         policies held to the property are those that stop speculatively
         loaded secrets in the Registry's threat-model table. *)
      loop (Registry.stopping Registry.Speculative_load)
  in
  {
    name = "noninterference";
    describe = "two-run secret-independence of the attacker view";
    run;
  }

(* ------------------------------------------------------------------ *)

let all =
  [ arch_diff; lang_diff; roundtrip_text; roundtrip_binary; noninterference ]

let names = List.map (fun o -> o.name) all
let find name = List.find_opt (fun o -> o.name = name) all

let input_of t ~seed =
  if t.name = lang_diff.name then begin
    let source = Gen_lev.random_source seed in
    let program =
      match Compiler.compile source with
      | Ok ir -> ir
      | Error _ -> [| Ir.Halt |]
    in
    (program, Some source)
  end
  else if t.name = noninterference.name then
    ((Gen.ni_case seed).Gen.program, None)
  else (Gen.random_program seed, None)
