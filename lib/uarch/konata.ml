module Ir = Levioso_ir.Ir
module Stall = Levioso_telemetry.Stall
module Flowtrace = Levioso_telemetry.Flowtrace

let format_version = 1

type insn = {
  seq : int;
  pc : int;
  fetch_c : int;
  mutable issue_c : int option;
  mutable complete_c : int option;
  mutable commit_c : int option;
  mutable squash_c : int option;
  mutable resolve_i : (int * bool * bool) option;
  (* (cycle, cause, code), newest first; reversed at render time *)
  mutable stalls : (int * string * string) list;
}

(* The pipeline reuses sequence numbers: after a squash, re-fetched
   correct-path instructions get the seqs their wrong-path predecessors
   held.  Every fetch therefore gets its own record ([insns]), with
   [live] mapping each seq to the record of its latest fetch — otherwise
   the re-fetch would overwrite the squashed record and wrong-path work
   would vanish from the trace. *)
type t = {
  window : (int * int) option;
  program : Ir.program;
  mutable insns : insn list;  (* newest fetch first *)
  live : (int, insn) Hashtbl.t;
  mutable last_cycle : int;
  mutable seen : int;
}

let create ?window program =
  (match window with
  | Some (a, b) when a < 0 || a > b ->
      invalid_arg (Printf.sprintf "Konata.create: bad window %d:%d" a b)
  | _ -> ());
  {
    window;
    program;
    insns = [];
    live = Hashtbl.create 256;
    last_cycle = 0;
    seen = 0;
  }

let disasm t pc =
  if pc >= 0 && pc < Array.length t.program then
    Ir.instr_to_string t.program.(pc)
  else Printf.sprintf "pc=%d" pc

let touch t cycle = if cycle > t.last_cycle then t.last_cycle <- cycle

let fetch t ~cycle ~seq ~pc =
  t.seen <- t.seen + 1;
  let keep =
    match t.window with Some (a, b) -> cycle >= a && cycle <= b | None -> true
  in
  if keep then begin
    let i =
      {
        seq;
        pc;
        fetch_c = cycle;
        issue_c = None;
        complete_c = None;
        commit_c = None;
        squash_c = None;
        resolve_i = None;
        stalls = [];
      }
    in
    t.insns <- i :: t.insns;
    Hashtbl.replace t.live seq i
  end
  else
    (* a stale mapping would attribute this fetch's later events to a
       previous in-window holder of the same seq *)
    Hashtbl.remove t.live seq

let on t seq f = Option.iter f (Hashtbl.find_opt t.live seq)

let feed t ~cycle (event : Pipeline.event) =
  touch t cycle;
  match event with
  | Pipeline.Fetched { seq; pc } -> fetch t ~cycle ~seq ~pc
  | Pipeline.Issued { seq; _ } -> on t seq (fun i -> i.issue_c <- Some cycle)
  | Pipeline.Completed { seq; _ } ->
      on t seq (fun i -> i.complete_c <- Some cycle)
  | Pipeline.Committed { seq; _ } ->
      on t seq (fun i -> i.commit_c <- Some cycle)
  | Pipeline.Branch_resolved { seq; taken; mispredicted; _ } ->
      on t seq (fun i -> i.resolve_i <- Some (cycle, taken, mispredicted))
  | Pipeline.Squashed { boundary; count } ->
      for seq = boundary + 1 to boundary + count do
        on t seq (fun i ->
            if i.commit_c = None && i.squash_c = None then
              i.squash_c <- Some cycle)
      done

(* One lane-1 cycle: [cause] is the full name (hover text), [code] the
   short stage label Konata colors by. *)
let mark t ~cycle ~seq ~cause ~code =
  touch t cycle;
  on t seq (fun i -> i.stalls <- (cycle, cause, code) :: i.stalls)

let cause_code = function
  | Stall.Policy_gate -> "Gp"
  | Stall.Operand_wait -> "Op"
  | Stall.Lsq_order -> "Lq"
  | Stall.Exec_port -> "Xp"
  | Stall.Rob_full -> "Rf"

let feed_stall t ~cycle ~seq ~pc:_ ~cause =
  mark t ~cycle ~seq
    ~cause:(Stall.cause_to_string cause)
    ~code:(cause_code cause)

(* Taint highlighting: flow-tracer source/transmit events become lane-1
   marks, so leaking instructions stand out in Konata's view.  The
   feeder keeps its own node-id -> seq map (Source/Transmit events name
   graph nodes, not ROB slots). *)
let flow_feeder t =
  let seq_of = Hashtbl.create 64 in
  let taint ~cycle id cause code =
    match Hashtbl.find_opt seq_of id with
    | Some seq -> mark t ~cycle ~seq ~cause ~code
    | None -> ()
  in
  fun ~cycle (ev : Flowtrace.event) ->
    match ev with
    | Flowtrace.Node { id; seq; _ } -> Hashtbl.replace seq_of id seq
    | Flowtrace.Source { id; _ } -> taint ~cycle id "taint source" "Ts"
    | Flowtrace.Transmit { id; _ } -> taint ~cycle id "tainted transmit" "Tn"
    | Flowtrace.Edge _ | Flowtrace.Resolved _ | Flowtrace.Committed _
    | Flowtrace.Squashed _ ->
      ()

let attach t pipe =
  Pipeline.set_tracer pipe (feed t);
  Pipeline.set_stall_tracer pipe (feed_stall t)

type interval = {
  iv_seq : int;
  iv_pc : int;
  iv_fetch : int;
  iv_issue : int option;
  iv_complete : int option;
  iv_commit : int option;
  iv_squash : int option;
  iv_stalls : (int * string) list;
}

let intervals t =
  List.map
    (fun i ->
      {
        iv_seq = i.seq;
        iv_pc = i.pc;
        iv_fetch = i.fetch_c;
        iv_issue = i.issue_c;
        iv_complete = i.complete_c;
        iv_commit = i.commit_c;
        iv_squash = i.squash_c;
        iv_stalls = List.rev_map (fun (c, cause, _) -> (c, cause)) i.stalls;
      })
    (List.rev t.insns)
  |> List.stable_sort (fun a b -> compare (a.iv_seq, a.iv_fetch) (b.iv_seq, b.iv_fetch))

let recorded t = List.length t.insns
let seen t = t.seen

(* Merge consecutive same-cause stall cycles into half-open episodes
   [(first, past_last, cause, code)].  Input is oldest first. *)
let episodes stalls =
  let rec go acc = function
    | [] -> List.rev acc
    | (c, cause, code) :: rest -> (
        match acc with
        | (c0, c1, cause0, code0) :: tl when cause0 = cause && c = c1 ->
            go ((c0, c + 1, cause0, code0) :: tl) rest
        | _ -> go ((c, c + 1, cause, code) :: acc) rest)
  in
  go [] stalls

(* Lane-0 stage segments, half-open [start, past_end).  [term] closes
   still-open stages: the squash cycle for squashed instructions, one
   past the last observed cycle otherwise. *)
let lane0 i term =
  let f_end = i.fetch_c + 1 in
  let base = [ ("F", i.fetch_c, f_end) ] in
  let tail =
    match (i.issue_c, i.complete_c, i.commit_c) with
    | Some isu, Some comp, cm ->
        let c_end = match cm with Some c -> c + 1 | None -> term in
        [ ("I", f_end, isu); ("X", isu, comp); ("C", comp, c_end) ]
    | Some isu, None, _ -> [ ("I", f_end, isu); ("X", isu, term) ]
    | None, _, Some cm ->
        (* Done at dispatch (jump/halt): window residence until commit. *)
        [ ("C", f_end, cm + 1) ]
    | None, _, None -> [ ("I", f_end, term) ]
  in
  List.filter (fun (_, s, e) -> e > s) (base @ tail)

let render ?(meta = []) t out =
  out "Kanata\t0004\n";
  out
    (Printf.sprintf "#levioso-timeline\tv%d\tschema_version=%d\n" format_version
       Levioso_telemetry.Schema.version);
  (match t.window with
  | Some (a, b) -> out (Printf.sprintf "#window\t%d:%d\n" a b)
  | None -> ());
  List.iter (fun (k, v) -> out (Printf.sprintf "#%s\t%s\n" k v)) meta;
  let insns = List.rev t.insns in
  let horizon = t.last_cycle + 1 in
  (* (cycle, file id, op index within instruction, line) *)
  let ops = ref [] in
  List.iteri
    (fun id i ->
      let opidx = ref 0 in
      let push cycle line =
        ops := (cycle, id, !opidx, line) :: !ops;
        incr opidx
      in
      push i.fetch_c (Printf.sprintf "I\t%d\t%d\t0" id i.seq);
      push i.fetch_c (Printf.sprintf "L\t%d\t0\t%d: %s" id i.pc (disasm t i.pc));
      push i.fetch_c
        (Printf.sprintf "L\t%d\t1\tseq=%d pc=%d fetch=%d " id i.seq i.pc
           i.fetch_c);
      (match i.resolve_i with
      | Some (c, taken, misp) ->
          push i.fetch_c
            (Printf.sprintf "L\t%d\t1\tresolved@%d taken=%b mispredict=%b " id c
               taken misp)
      | None -> ());
      let term = match i.squash_c with Some s -> s | None -> horizon in
      List.iter
        (fun (stage, s, e) ->
          push s (Printf.sprintf "S\t%d\t0\t%s" id stage);
          push e (Printf.sprintf "E\t%d\t0\t%s" id stage))
        (lane0 i term);
      List.iter
        (fun (c0, c1, cause, code) ->
          push i.fetch_c
            (Printf.sprintf "L\t%d\t1\t%s [%d,%d) " id cause c0 c1);
          push c0 (Printf.sprintf "S\t%d\t1\t%s" id code);
          push c1 (Printf.sprintf "E\t%d\t1\t%s" id code))
        (episodes (List.rev i.stalls));
      match (i.commit_c, i.squash_c) with
      | Some cm, _ -> push (cm + 1) (Printf.sprintf "R\t%d\t%d\t0" id i.seq)
      | None, Some sq -> push sq (Printf.sprintf "R\t%d\t%d\t1" id i.seq)
      | None, None -> ())
    insns;
  let sorted =
    List.sort
      (fun (c1, i1, o1, _) (c2, i2, o2, _) -> compare (c1, i1, o1) (c2, i2, o2))
      !ops
  in
  let cur = ref min_int in
  List.iter
    (fun (c, _, _, line) ->
      if c <> !cur then (
        out (Printf.sprintf "C=\t%d\n" c);
        cur := c);
      out line;
      out "\n")
    sorted

let to_string ?meta t =
  let buf = Buffer.create 4096 in
  render ?meta t (Buffer.add_string buf);
  Buffer.contents buf

let write ?meta t oc = render ?meta t (output_string oc)
