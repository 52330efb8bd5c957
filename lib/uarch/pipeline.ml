module Ir = Levioso_ir.Ir
module Stall = Levioso_telemetry.Stall
module Audit = Levioso_telemetry.Audit
module Flowtrace = Levioso_telemetry.Flowtrace

type load_visibility =
  | Normal
  | Invisible

type policy = {
  policy_name : string;
  on_decode : seq:int -> unit;
  on_resolve : seq:int -> unit;
  on_squash : boundary:int -> unit;
  on_commit : seq:int -> unit;
  may_execute : seq:int -> bool;
  load_visibility : seq:int -> load_visibility;
  explain : seq:int -> Audit.reason;
}

let always_execute_policy =
  {
    policy_name = "always-execute";
    on_decode = (fun ~seq:_ -> ());
    on_resolve = (fun ~seq:_ -> ());
    on_squash = (fun ~boundary:_ -> ());
    on_commit = (fun ~seq:_ -> ());
    may_execute = (fun ~seq:_ -> true);
    load_visibility = (fun ~seq:_ -> Normal);
    explain = (fun ~seq:_ -> Audit.Unspecified);
  }

type event =
  | Fetched of { seq : int; pc : int }
  | Issued of { seq : int; pc : int }
  | Completed of { seq : int; pc : int }
  | Committed of { seq : int; pc : int }
  | Branch_resolved of { seq : int; pc : int; taken : bool; mispredicted : bool }
  | Squashed of { boundary : int; count : int }

let event_to_string = function
  | Fetched { seq; pc } -> Printf.sprintf "fetch   seq=%d pc=%d" seq pc
  | Issued { seq; pc } -> Printf.sprintf "issue   seq=%d pc=%d" seq pc
  | Completed { seq; pc } -> Printf.sprintf "done    seq=%d pc=%d" seq pc
  | Committed { seq; pc } -> Printf.sprintf "commit  seq=%d pc=%d" seq pc
  | Branch_resolved { seq; pc; taken; mispredicted } ->
    Printf.sprintf "resolve seq=%d pc=%d taken=%b mispredict=%b" seq pc taken
      mispredicted
  | Squashed { boundary; count } ->
    Printf.sprintf "squash  boundary=%d count=%d" boundary count

(* Hot-path state encodings.  The per-cycle structures avoid boxed
   values entirely: source operands, in-flight state, the rename table,
   completion buckets and the unresolved-branch queue are all bare ints
   with -1 (or the codes below) as sentinels, so a tracer-off cycle
   allocates nothing.  Per-cycle loops are [for]/[while] loops rather
   than local recursive functions: without flambda a local function that
   captures state is a closure allocated on every call. *)

(* entry.st *)
let st_waiting = 0
let st_inflight = 1
let st_done = 2

(* One open restriction episode (audit enabled only): captured at the
   first policy refusal, closed — one audit event — when the entry
   issues or is squashed. *)
type gate = {
  g_reason : Audit.reason;
  g_necessary : bool;
  mutable g_cycles : int;
}

(* ROB entries live in a preallocated arena ([t.slots]) and are reused
   across instructions: dispatch overwrites every field in place, so the
   per-instruction cost is stores into existing blocks, not a fresh
   record + arrays.  Operand sources captured at rename: [src_kind.(i)]
   is 0 for a literal (immediates and already-committed register reads,
   value in [src_val]) and 1 for an in-flight producer ([src_val] holds
   its seq). *)
type entry = {
  mutable seq : int;
  mutable pc : int;
  mutable instr : Ir.instr;
  mutable n_srcs : int;
  src_kind : int array;  (* length 3 *)
  src_val : int array;  (* length 3 *)
  mutable st : int;  (* st_waiting / st_inflight / st_done *)
  mutable done_cycle : int;  (* meaningful when st_inflight *)
  mutable value : int;
  mutable addr : int;
  mutable addr_known : bool;
  mutable pred_taken : bool;
  mutable taken : bool;
  mutable resolved : bool;
  mutable started : bool;
  mutable is_miss : bool;  (* holds an MSHR while in flight *)
  mutable policy_stalled : bool;
  (* Waiting entries are either in the ready queue ([queued]) or still
     waiting on an operand, in which case [wait_from] is the first
     issue-stage cycle not yet charged to [Operand_wait]. *)
  mutable queued : bool;
  mutable wait_from : int;
  mutable gate : gate option;  (* open audit episode, audit enabled only *)
  (* flow tracing (enabled only): the entry's leak-graph node id (-1 =
     no node yet), the taint marker on the value it produces (-1 =
     clean, otherwise the node id of the tainting instruction), and the
     per-source taint markers captured at rename for operands that
     collapsed to literals (committed-register reads). *)
  mutable fi_id : int;
  mutable fi_v : int;
  fi_src : int array;  (* length 3 *)
  (* branches carry recovery snapshots (blitted in place at dispatch) *)
  rename_snap : int array;  (* length num_regs; -1 = no mapping *)
  mutable hist_snap : Predictor.snapshot;
}

(* Shadow taint state for the speculative information-flow tracer.
   Allocated only by [set_flow_tracer]; everything is Option-gated so a
   tracer-off run executes not one extra instruction on the hot path.
   Taint markers are leak-graph node ids: [fl_taint_regs]/[fl_taint_mem]
   shadow the architectural register file and memory (written only at
   commit, so squashes need no rollback), [fl_taint_buf] shadows
   [value_buf] (written at completion, same aliasing argument). *)
type flow = {
  fl_ranges : (int * int) list;  (* secret address ranges, inclusive *)
  fl_cb : cycle:int -> Flowtrace.event -> unit;
  fl_taint_regs : int array;
  fl_taint_mem : int array;
  fl_taint_buf : int array;
  mutable fl_next_id : int;
}

type t = {
  cfg : Config.t;
  program : Ir.program;
  rob : int;  (* cfg.rob_size: the window capacity *)
  slot_mask : int;  (* Array.length slots - 1 *)
  vb_mask : int;  (* Array.length value_buf - 1 *)
  regs : int array;
  memory : int array;
  mem_mask : int;
  hierarchy : Cache.Hierarchy.h;
  predictor : Predictor.t;
  (* The ROB arena and the committed-value buffer are power-of-two
     sized and indexed [seq land mask], so the per-entry lookups on the
     issue path are masks, not integer divides.  [slots] has at least
     [rob] entries and [value_buf] at least [2 * rob]; only [rob] bounds
     the window (fetch stops when [tail_seq - head_seq = rob]), so the
     spare arena capacity never changes simulated behaviour. *)
  slots : entry array;
  value_buf : int array;
  rename : int array;  (* -1 = architectural (no in-flight producer) *)
  mutable head_seq : int;
  mutable tail_seq : int;
  mutable fetch_pc : int;
  mutable fetch_resume : int;  (* first cycle fetch may proceed *)
  mutable fetch_stopped : bool;
  mutable outstanding_misses : int;
  mutable cyc : int;
  mutable is_halted : bool;
  mutable policy : policy;
  stats : Sim_stats.t;
  stall : Stall.t;
  (* Completion calendar: a power-of-two ring of buckets indexed by
     completion cycle, flattened into [comp_buf] ([comp_cap] ints per
     bucket, occupancy in [comp_len]).  Sized so the largest configured
     latency never wraps past an undrained bucket; each bucket keeps its
     seqs sorted ascending (insertion shift) so completion order is
     deterministic without a per-cycle sort or any list consing. *)
  comp_buf : int array;
  comp_len : int array;
  comp_cap : int;
  completions_mask : int;
  (* In-flight unresolved conditional branches, ascending by seq, in a
     flat queue ([ub_len] live entries).  Maintained at dispatch /
     resolve / squash so the policy-facing queries
     [exists_older_unresolved_branch] (O(1): compare against the head)
     and [unresolved_branch] (the i-th oldest) never rescan the whole
     ROB. *)
  ub : int array;
  mutable ub_len : int;
  (* Wakeup-driven issue.  [wake] row [p] holds the arena slots of the
     consumers that were waiting on the producer in slot [p] when they
     dispatched; the row is walked and cleared when that producer
     completes.  Bits left by squashes and slot reuse are harmless: every
     candidate is re-validated before it is queued.  [ready] holds the
     seqs of the waiting, operand-ready entries, ascending, so issue
     visits nothing else. *)
  wake : Slot_mask.t;
  ready : int array;
  mutable ready_len : int;
  mutable last_issue_cyc : int;  (* the last cycle that ran [issue] *)
  (* In-flight stores, ascending, in a ring over [sq_head, sq_tail)
     indexed [land slot_mask]: memory disambiguation walks only these. *)
  sq : int array;
  mutable sq_head : int;
  mutable sq_tail : int;
  mutable tracer : (cycle:int -> event -> unit) option;
  mutable stall_tracer :
    (cycle:int -> seq:int -> pc:int -> cause:Stall.cause -> unit) option;
  mutable flow : flow option;
  (* Always-on bounded window of recent events for deadlock diagnostics
     (and post-mortem inspection), stored flat — 5 ints per event
     (cycle, tag, a, b, c) — so recording never allocates; events are
     materialized only by [recent_events]. *)
  recent_buf : int array;
  mutable recent_len : int;  (* total events ever pushed *)
  mutable head_stall_cause : int;  (* Stall.cause_index, -1 = none *)
  audit : Audit.t option;
}

type policy_maker = Config.t -> Ir.program -> t -> policy

type deadlock = {
  dl_cycle : int;
  dl_last_commit_cycle : int;
  dl_policy : string;
  dl_head_seq : int;
  dl_head_pc : int;
  dl_head_cause : Stall.cause option;
  dl_recent_events : (int * event) list;
}

exception Deadlock of deadlock

let deadlock_to_string d =
  let cause =
    match d.dl_head_cause with
    | Some c -> Stall.cause_to_string c
    | None -> "unknown"
  in
  let events =
    match d.dl_recent_events with
    | [] -> "none"
    | evs ->
      String.concat "; "
        (List.map
           (fun (c, ev) -> Printf.sprintf "[%d] %s" c (event_to_string ev))
           evs)
  in
  Printf.sprintf
    "no commit since cycle %d (now %d): head seq %d pc %d stalled on %s \
     (policy %s); recent events: %s"
    d.dl_last_commit_cycle d.dl_cycle d.dl_head_seq d.dl_head_pc cause
    d.dl_policy events

let () =
  Printexc.register_printer (function
    | Deadlock d -> Some ("Pipeline.Deadlock: " ^ deadlock_to_string d)
    | _ -> None)

let is_transmitter = function
  | Ir.Load _ | Ir.Flush _ -> true
  | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Rdcycle _ | Ir.Halt ->
    false

let recent_events_capacity = 32

let in_flight t seq = seq >= t.head_seq && seq < t.tail_seq

(* Any arena of at least [rob] slots is injective over a window of <= rob
   in-flight seqs, so an in-flight seq's slot necessarily holds its
   entry; anything outside the window is stale arena contents. *)
let entry_exn t seq =
  if seq >= t.head_seq && seq < t.tail_seq then t.slots.(seq land t.slot_mask)
  else invalid_arg (Printf.sprintf "Pipeline: seq %d not in flight" seq)

let instr_of t seq = (entry_exn t seq).instr
let pc_of t seq = (entry_exn t seq).pc
let oldest_seq t = t.head_seq
let next_seq t = t.tail_seq

let is_unresolved_branch t seq =
  in_flight t seq
  &&
  let e = entry_exn t seq in
  Ir.is_branch e.instr && not e.resolved

let unresolved_branch_count t = t.ub_len

let unresolved_branch t i =
  if i < 0 || i >= t.ub_len then
    invalid_arg (Printf.sprintf "Pipeline.unresolved_branch: index %d" i)
  else t.ub.(i)

let older_unresolved_branches t ~seq =
  let rec count i = if i < t.ub_len && t.ub.(i) < seq then count (i + 1) else i in
  let n = count 0 in
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.ub.(i) :: acc) in
  build (n - 1) []

let exists_older_unresolved_branch t ~seq = t.ub_len > 0 && t.ub.(0) < seq

let producer_count t seq =
  let e = entry_exn t seq in
  let n = ref 0 in
  for i = 0 to e.n_srcs - 1 do
    if e.src_kind.(i) = 1 then incr n
  done;
  !n

let producer t seq i =
  let e = entry_exn t seq in
  (* [k] walks the operands, [left] counts down the producers to skip *)
  let k = ref 0 and left = ref i in
  while !k < e.n_srcs && (e.src_kind.(!k) = 0 || !left > 0) do
    if e.src_kind.(!k) = 1 then decr left;
    incr k
  done;
  if !k >= e.n_srcs || i < 0 then
    invalid_arg (Printf.sprintf "Pipeline.producer: index %d" i)
  else e.src_val.(!k)

let producers_of t seq = List.init (producer_count t seq) (producer t seq)

let arena_size t = t.slot_mask + 1

let regs t = t.regs
let mem t = t.memory
let cycle t = t.cyc
let stats t = t.stats
let audit t = t.audit
let hierarchy t = t.hierarchy
let predictor t = t.predictor
let config t = t.cfg
let halted t = t.is_halted

let arch_pc t =
  (* An empty window means no unresolved branch is in flight, so
     [fetch_pc] is on the architecturally-correct path. *)
  if t.head_seq < t.tail_seq then t.slots.(t.head_seq land t.slot_mask).pc
  else t.fetch_pc

let set_tracer t f = t.tracer <- Some f
let set_stall_tracer t f = t.stall_tracer <- Some f

let set_flow_tracer t ~secret_ranges f =
  List.iter
    (fun (lo, hi) ->
      if lo < 0 || lo > hi then
        invalid_arg
          (Printf.sprintf "Pipeline.set_flow_tracer: bad secret range %d:%d" lo
             hi))
    secret_ranges;
  t.flow <-
    Some
      {
        fl_ranges = secret_ranges;
        fl_cb = f;
        fl_taint_regs = Array.make Ir.num_regs (-1);
        fl_taint_mem = Array.make (Array.length t.memory) (-1);
        fl_taint_buf = Array.make (t.vb_mask + 1) (-1);
        fl_next_id = 0;
      }

(* --- event recording ------------------------------------------------- *)

(* Event tags in the flat ring.  For seq-carrying tags a=seq, b=pc; for
   resolves c packs taken (bit 0) and mispredicted (bit 1); for squashes
   a=boundary, b=count. *)
let tag_fetched = 0
let tag_issued = 1
let tag_completed = 2
let tag_committed = 3
let tag_resolved = 4
let tag_squashed = 5

let decode_event tag a b c =
  match tag with
  | 0 -> Fetched { seq = a; pc = b }
  | 1 -> Issued { seq = a; pc = b }
  | 2 -> Completed { seq = a; pc = b }
  | 3 -> Committed { seq = a; pc = b }
  | 4 ->
    Branch_resolved
      { seq = a; pc = b; taken = c land 1 = 1; mispredicted = c land 2 = 2 }
  | _ -> Squashed { boundary = a; count = b }

let ring_store t tag a b c =
  let i = t.recent_len mod recent_events_capacity * 5 in
  t.recent_buf.(i) <- t.cyc;
  t.recent_buf.(i + 1) <- tag;
  t.recent_buf.(i + 2) <- a;
  t.recent_buf.(i + 3) <- b;
  t.recent_buf.(i + 4) <- c;
  t.recent_len <- t.recent_len + 1

(* The event variant is constructed only when a tracer is installed; the
   always-on ring sees bare ints. *)
let emit_seq t tag seq pc =
  ring_store t tag seq pc 0;
  match t.tracer with
  | None -> ()
  | Some f -> f ~cycle:t.cyc (decode_event tag seq pc 0)

let emit_resolved t seq pc ~taken ~mispredicted =
  let c = (if taken then 1 else 0) lor (if mispredicted then 2 else 0) in
  ring_store t tag_resolved seq pc c;
  match t.tracer with
  | None -> ()
  | Some f -> f ~cycle:t.cyc (Branch_resolved { seq; pc; taken; mispredicted })

let emit_squashed t boundary count =
  ring_store t tag_squashed boundary count 0;
  match t.tracer with
  | None -> ()
  | Some f -> f ~cycle:t.cyc (Squashed { boundary; count })

let recent_events t =
  let n = min t.recent_len recent_events_capacity in
  let rec go k acc =
    if k < t.recent_len - n then acc
    else
      let i = k mod recent_events_capacity * 5 in
      go (k - 1)
        (( t.recent_buf.(i),
           decode_event
             t.recent_buf.(i + 1)
             t.recent_buf.(i + 2)
             t.recent_buf.(i + 3)
             t.recent_buf.(i + 4) )
        :: acc)
  in
  go (t.recent_len - 1) []

(* One waiting cycle attributed to [cause] for entry [e]: feeds the
   aggregate table, the head-of-window diagnostic (what the oldest
   instruction is blocked on right now), and the optional per-cycle
   stall tracer (timeline rendering). *)
let charge_entry t e cause =
  Stall.charge t.stall ~cause ~pc:e.pc;
  if e.seq = t.head_seq then t.head_stall_cause <- Stall.cause_index cause;
  match t.stall_tracer with
  | Some f -> f ~cycle:t.cyc ~seq:e.seq ~pc:e.pc ~cause
  | None -> ()

(* Operand waits are charged in bulk: readiness changes only in
   [complete], which runs before [issue], so an entry not ready at
   dispatch is charged [Operand_wait] in every issue stage from the
   cycle after dispatch up to the one before it wakes.  [charge_wait]
   settles the cycles [e.wait_from, upto) in one call; the stall tracer
   still gets one callback per cycle, in ascending order.  The head
   diagnostic is kept per cycle by [issue]. *)
let charge_wait t e upto =
  let n = upto - e.wait_from in
  if n > 0 then begin
    Stall.charge_n t.stall ~cause:Stall.Operand_wait ~pc:e.pc n;
    (match t.stall_tracer with
    | Some f ->
      for c = e.wait_from to upto - 1 do
        f ~cycle:c ~seq:e.seq ~pc:e.pc ~cause:Stall.Operand_wait
      done
    | None -> ());
    e.wait_from <- upto
  end

(* Settle every pending wait through the last issue stage, so a read
   sees exactly what per-cycle charging would have recorded.  Reading
   twice, or reading and running on, charges nothing twice. *)
let stall_attribution t =
  for seq = t.head_seq to t.tail_seq - 1 do
    let e = t.slots.(seq land t.slot_mask) in
    if e.st = st_waiting && not e.queued then charge_wait t e (t.last_issue_cyc + 1)
  done;
  t.stall

let mask_addr t addr = addr land t.mem_mask

let src_ready t e i =
  e.src_kind.(i) = 0
  ||
  let s = e.src_val.(i) in
  s < t.head_seq || t.slots.(s land t.slot_mask).st = st_done

let src_value t e i =
  if e.src_kind.(i) = 0 then e.src_val.(i)
  else
    let s = e.src_val.(i) in
    if s < t.head_seq then t.value_buf.(s land t.vb_mask)
    else t.slots.(s land t.slot_mask).value

let operands_ready t e =
  let n = e.n_srcs in
  (n < 1 || src_ready t e 0)
  && (n < 2 || src_ready t e 1)
  && (n < 3 || src_ready t e 2)

let load_address t seq =
  let e = entry_exn t seq in
  match e.instr with
  | Ir.Load _ when src_ready t e 0 && src_ready t e 1 ->
    mask_addr t (src_value t e 0 + src_value t e 1)
  | Ir.Load _ | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
  | Ir.Rdcycle _ | Ir.Halt ->
    -1

let load_address_if_ready t seq =
  let a = load_address t seq in
  if a < 0 then None else Some a

let def_reg = function
  | Ir.Alu { dst; _ } | Ir.Load { dst; _ } | Ir.Rdcycle { dst; _ } ->
    if dst = Ir.zero_reg then -1 else dst
  | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _ | Ir.Halt -> -1

(* --- speculative information-flow tracing --------------------------- *)

let flow_kind = function
  | Ir.Branch _ -> Flowtrace.Branch
  | Ir.Load _ -> Flowtrace.Load
  | Ir.Store _ -> Flowtrace.Store
  | Ir.Flush _ -> Flowtrace.Flush
  | Ir.Alu _ -> Flowtrace.Alu
  | Ir.Jump _ | Ir.Rdcycle _ | Ir.Halt -> Flowtrace.Other

(* Lazy node creation: only instructions that carry or observe taint get
   a node, so the graph stays small on big clean workloads. *)
let flow_node t fl e =
  if e.fi_id < 0 then begin
    e.fi_id <- fl.fl_next_id;
    fl.fl_next_id <- fl.fl_next_id + 1;
    fl.fl_cb ~cycle:t.cyc
      (Flowtrace.Node
         {
           id = e.fi_id;
           seq = e.seq;
           pc = e.pc;
           kind = flow_kind e.instr;
           disasm = Ir.instr_to_string e.instr;
         })
  end;
  e.fi_id

(* Taint marker of source operand [i]: committed-register reads collapse
   to literals at rename, so their marker was captured into [fi_src]
   then; in-flight producers are consulted live, committed ones through
   the taint shadow of [value_buf]. *)
let src_taint t fl e i =
  if e.src_kind.(i) = 0 then e.fi_src.(i)
  else
    let s = e.src_val.(i) in
    if s < t.head_seq then fl.fl_taint_buf.(s land t.vb_mask)
    else t.slots.(s land t.slot_mask).fi_v

(* Called once per successful issue (flow tracing on).  Classifies each
   operand as address- or data-carrying, decides whether the instruction
   births taint (a load reading a secret range from the hierarchy),
   transmits it (a tainted-address cache access), or merely propagates
   it, and emits the matching graph events.  [forward_seq] is the
   forwarding store's seq for a store-to-load forward, -1 otherwise. *)
let flow_on_issue t fl e ~forward_seq ~touched_cache =
  let addr_idx, data_idx =
    match e.instr with
    | Ir.Alu _ | Ir.Branch _ -> ([], [ 0; 1 ])
    | Ir.Load _ | Ir.Flush _ -> ([ 0; 1 ], [])
    | Ir.Store _ -> ([ 0; 1 ], [ 2 ])
    | Ir.Rdcycle _ | Ir.Jump _ | Ir.Halt -> ([], [])
  in
  let tainted idx =
    List.filter_map
      (fun i ->
        let m = src_taint t fl e i in
        if m >= 0 then Some m else None)
      idx
  in
  let addr_taints = tainted addr_idx in
  let data_taints = tainted data_idx in
  let mem_taint =
    match e.instr with
    | Ir.Load _ ->
      if forward_seq >= 0 then t.slots.(forward_seq land t.slot_mask).fi_v
      else fl.fl_taint_mem.(e.addr)
    | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      -1
  in
  let in_range a = List.exists (fun (lo, hi) -> a >= lo && a <= hi) fl.fl_ranges in
  let is_source =
    match e.instr with
    | Ir.Load _ -> forward_seq < 0 && in_range e.addr
    | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      false
  in
  let is_transmit = touched_cache && addr_taints <> [] in
  let value_tainted =
    is_source || data_taints <> [] || mem_taint >= 0
    || (match e.instr with
       | Ir.Load _ -> addr_taints <> []
       | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
       | Ir.Rdcycle _ | Ir.Halt ->
         false)
  in
  if is_source || is_transmit || value_tainted || addr_taints <> [] then begin
    let id = flow_node t fl e in
    List.iter
      (fun m -> fl.fl_cb ~cycle:t.cyc (Flowtrace.Edge { src = m; dst = id; dep = Flowtrace.Address }))
      addr_taints;
    List.iter
      (fun m -> fl.fl_cb ~cycle:t.cyc (Flowtrace.Edge { src = m; dst = id; dep = Flowtrace.Data }))
      data_taints;
    if mem_taint >= 0 then
      fl.fl_cb ~cycle:t.cyc
        (Flowtrace.Edge { src = mem_taint; dst = id; dep = Flowtrace.Data });
    if is_source then
      fl.fl_cb ~cycle:t.cyc (Flowtrace.Source { id; addr = e.addr });
    if is_source || is_transmit then
      (* Speculation edges tie the leak to the branches it raced: one per
         older unresolved branch, emitted only for sources and transmits
         to keep the graph lean. *)
      List.iter
        (fun s ->
          let be = entry_exn t s in
          let bid = flow_node t fl be in
          fl.fl_cb ~cycle:t.cyc
            (Flowtrace.Edge { src = bid; dst = id; dep = Flowtrace.Speculation }))
        (older_unresolved_branches t ~seq:e.seq);
    if is_transmit then
      fl.fl_cb ~cycle:t.cyc (Flowtrace.Transmit { id; addr = e.addr });
    if value_tainted then e.fi_v <- id
  end

let flow_issue t e ~forward_seq ~touched_cache =
  match t.flow with
  | None -> ()
  | Some fl -> flow_on_issue t fl e ~forward_seq ~touched_cache

(* --- restriction audit ---------------------------------------------- *)

(* Open an episode at the first refusal: capture the policy's own
   explanation and classify necessity against the older unresolved
   branches standing at this moment — an instruction restricted while
   none of them is a true static branch dependency of its PC was
   restricted unnecessarily. *)
let audit_gate t a e seq =
  match e.gate with
  | Some g -> g.g_cycles <- g.g_cycles + 1
  | None ->
    let branch_pcs =
      List.map (fun s -> (entry_exn t s).pc) (older_unresolved_branches t ~seq)
    in
    e.gate <-
      Some
        {
          g_reason = t.policy.explain ~seq;
          g_necessary = Audit.necessary a ~pc:e.pc ~branch_pcs;
          g_cycles = 1;
        }

let audit_close t a e outcome =
  match e.gate with
  | None -> ()
  | Some g ->
    e.gate <- None;
    Audit.record a
      {
        Audit.seq = e.seq;
        pc = e.pc;
        policy = t.policy.policy_name;
        reason = g.g_reason;
        necessary = g.g_necessary;
        cycles = g.g_cycles;
        end_cycle = t.cyc;
        outcome;
      }

(* --- dispatch ------------------------------------------------------- *)

(* Rename one source operand in place: immediates and already-committed
   register values become literals (kind 0); in-flight producers are
   referenced by seq (kind 1).  A rename-snapshot restore can resurrect
   a mapping to an already-committed producer, hence the [< head_seq]
   literal collapse (its value is in the register file). *)
let set_src t e i op =
  match op with
  | Ir.Imm v ->
    e.src_kind.(i) <- 0;
    e.src_val.(i) <- v;
    e.fi_src.(i) <- -1
  | Ir.Reg r ->
    if r = Ir.zero_reg then begin
      e.src_kind.(i) <- 0;
      e.src_val.(i) <- 0;
      e.fi_src.(i) <- -1
    end
    else
      let s = t.rename.(r) in
      if s < t.head_seq then begin
        e.src_kind.(i) <- 0;
        e.src_val.(i) <- t.regs.(r);
        (* the literal collapse would lose the register's taint — capture
           the marker now, while the register identity is still known *)
        e.fi_src.(i) <-
          (match t.flow with
          | Some fl -> fl.fl_taint_regs.(r)
          | None -> -1)
      end
      else begin
        e.src_kind.(i) <- 1;
        e.src_val.(i) <- s;
        e.fi_src.(i) <- -1
      end

(* Queue a just-dispatched entry if its operands are ready, otherwise
   set its bit in the wake row of every producer still in flight.  Its
   seq is the youngest in flight, so appending keeps [ready] ascending;
   its first issue stage is next cycle's. *)
let register_wakeup t e =
  let waiting = ref false in
  for i = 0 to e.n_srcs - 1 do
    if not (src_ready t e i) then begin
      waiting := true;
      Slot_mask.add t.wake (e.src_val.(i) land t.slot_mask) (e.seq land t.slot_mask)
    end
  done;
  e.queued <- not !waiting;
  if !waiting then e.wait_from <- t.cyc + 1
  else begin
    t.ready.(t.ready_len) <- e.seq;
    t.ready_len <- t.ready_len + 1
  end

let dispatch_one t =
  let pc = t.fetch_pc in
  let instr = t.program.(pc) in
  let seq = t.tail_seq in
  let e = t.slots.(seq land t.slot_mask) in
  e.seq <- seq;
  e.pc <- pc;
  e.instr <- instr;
  e.st <- st_waiting;
  e.done_cycle <- 0;
  e.value <- 0;
  e.addr <- 0;
  e.addr_known <- false;
  e.pred_taken <- false;
  e.taken <- false;
  e.resolved <- false;
  e.started <- false;
  e.is_miss <- false;
  e.policy_stalled <- false;
  e.gate <- None;
  e.fi_id <- -1;
  e.fi_v <- -1;
  (match instr with
  | Ir.Alu { a; b; _ } | Ir.Branch { a; b; _ } ->
    e.n_srcs <- 2;
    set_src t e 0 a;
    set_src t e 1 b
  | Ir.Load { base; off; _ } | Ir.Flush { base; off } ->
    e.n_srcs <- 2;
    set_src t e 0 base;
    set_src t e 1 off
  | Ir.Store { base; off; src } ->
    e.n_srcs <- 3;
    set_src t e 0 base;
    set_src t e 1 off;
    set_src t e 2 src
  | Ir.Rdcycle { after; _ } ->
    e.n_srcs <- 1;
    set_src t e 0 after
  | Ir.Jump _ | Ir.Halt -> e.n_srcs <- 0);
  let is_br = Ir.is_branch instr in
  if is_br then Array.blit t.rename 0 e.rename_snap 0 (Array.length t.rename);
  e.hist_snap <- Predictor.snapshot t.predictor;
  t.tail_seq <- seq + 1;
  (* [seq] exceeds every in-flight seq, so appending keeps the queue
     ascending; squash trims it back before any seq is reused. *)
  if is_br then begin
    t.ub.(t.ub_len) <- seq;
    t.ub_len <- t.ub_len + 1
  end;
  t.stats.Sim_stats.fetched <- t.stats.Sim_stats.fetched + 1;
  emit_seq t tag_fetched seq pc;
  (* Rename the destination after capturing sources. *)
  let d = def_reg instr in
  if d >= 0 then t.rename.(d) <- seq;
  (* Steer fetch. *)
  (match instr with
  | Ir.Branch { target; _ } ->
    let dir = Predictor.predict t.predictor ~pc in
    e.pred_taken <- dir;
    t.fetch_pc <- (if dir then target else pc + 1)
  | Ir.Jump { target } ->
    e.st <- st_done;
    t.fetch_pc <- target
  | Ir.Halt ->
    e.st <- st_done;
    t.fetch_stopped <- true
  | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Flush _ | Ir.Rdcycle _ ->
    t.fetch_pc <- pc + 1);
  (match instr with
  | Ir.Store _ ->
    t.sq.(t.sq_tail land t.slot_mask) <- seq;
    t.sq_tail <- t.sq_tail + 1
  | Ir.Alu _ | Ir.Load _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _ | Ir.Rdcycle _
  | Ir.Halt ->
    ());
  if e.st = st_waiting then register_wakeup t e;
  t.policy.on_decode ~seq

let fetch t =
  if (not t.fetch_stopped) && t.cyc >= t.fetch_resume then begin
    let remaining = ref t.cfg.Config.fetch_width in
    while !remaining > 0 && (not t.fetch_stopped) && t.tail_seq - t.head_seq < t.rob do
      dispatch_one t;
      decr remaining
    done;
    (* Attribution: fetch wanted to dispatch but the window is full — one
       Rob_full charge per blocked cycle, against the stalled fetch PC. *)
    if
      !remaining > 0
      && (not t.fetch_stopped)
      && t.tail_seq - t.head_seq >= t.rob
      && t.fetch_pc < Array.length t.program
    then Stall.charge t.stall ~cause:Stall.Rob_full ~pc:t.fetch_pc
  end

(* --- squash --------------------------------------------------------- *)

let squash t ~boundary =
  let branch = entry_exn t boundary in
  emit_squashed t boundary (t.tail_seq - boundary - 1);
  for seq = t.tail_seq - 1 downto boundary + 1 do
    let e = t.slots.(seq land t.slot_mask) in
    (match t.audit with
    | Some a -> audit_close t a e Audit.Squashed
    | None -> ());
    if e.st = st_waiting && not e.queued then charge_wait t e t.cyc;
    t.stats.Sim_stats.squashed <- t.stats.Sim_stats.squashed + 1;
    if e.is_miss then begin
      e.is_miss <- false;
      t.outstanding_misses <- t.outstanding_misses - 1
    end;
    if e.started then begin
      (match e.instr with
      | Ir.Load _ ->
        t.stats.Sim_stats.wrong_path_executed_loads <-
          t.stats.Sim_stats.wrong_path_executed_loads + 1
      | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
      | Ir.Rdcycle _ | Ir.Halt ->
        ());
      if is_transmitter e.instr then
        Sim_stats.record_wrong_path_transmit t.stats ~branch_pc:branch.pc ~pc:e.pc
    end;
    match t.flow with
    | Some fl when e.fi_id >= 0 ->
      fl.fl_cb ~cycle:t.cyc (Flowtrace.Squashed { id = e.fi_id })
    | Some _ | None -> ()
  done;
  t.tail_seq <- boundary + 1;
  (* ascending, so everything younger than the boundary is a suffix *)
  while t.ub_len > 0 && t.ub.(t.ub_len - 1) > boundary do
    t.ub_len <- t.ub_len - 1
  done;
  while t.ready_len > 0 && t.ready.(t.ready_len - 1) > boundary do
    t.ready_len <- t.ready_len - 1
  done;
  while t.sq_tail > t.sq_head && t.sq.((t.sq_tail - 1) land t.slot_mask) > boundary do
    t.sq_tail <- t.sq_tail - 1
  done;
  (* Restore the rename table from the branch's snapshot, dropping mappings
     whose producers have committed meanwhile (their values are in the
     register file). *)
  for r = 0 to Array.length t.rename - 1 do
    let s = branch.rename_snap.(r) in
    t.rename.(r) <- (if s >= 0 && s < t.head_seq then -1 else s)
  done;
  t.policy.on_squash ~boundary

(* --- completion ----------------------------------------------------- *)

(* Ascending insertion shift: buckets hold at most a few seqs (one issue
   group's worth), so this beats sorting the whole bucket at drain. *)
let schedule_completion t seq done_cycle =
  let b = done_cycle land t.completions_mask in
  let base = b * t.comp_cap in
  let len = t.comp_len.(b) in
  assert (len < t.comp_cap);
  let i = ref len in
  while !i > 0 && t.comp_buf.(base + !i - 1) > seq do
    t.comp_buf.(base + !i) <- t.comp_buf.(base + !i - 1);
    decr i
  done;
  t.comp_buf.(base + !i) <- seq;
  t.comp_len.(b) <- len + 1

let ub_remove t seq =
  let n = t.ub_len in
  let i = ref 0 in
  while !i < n && t.ub.(!i) <> seq do
    incr i
  done;
  let i = !i in
  if i < n then begin
    for k = i to n - 2 do
      t.ub.(k) <- t.ub.(k + 1)
    done;
    t.ub_len <- n - 1
  end

(* Insert a woken seq into the ascending ready queue.  Wakes arrive in
   slot order, not seq order, hence the shift. *)
let ready_insert t seq =
  let i = ref t.ready_len in
  while !i > 0 && t.ready.(!i - 1) > seq do
    t.ready.(!i) <- t.ready.(!i - 1);
    decr i
  done;
  t.ready.(!i) <- seq;
  t.ready_len <- t.ready_len + 1

(* Producer [p] completed: visit only its wake row, lowest slot first,
   and queue each candidate that is still a waiting, unqueued, in-flight
   entry whose operands are now all ready. *)
let wake_consumers t p =
  let row = p land t.slot_mask in
  let b = ref (Slot_mask.pop_min t.wake row) in
  while !b >= 0 do
    let c = t.slots.(!b) in
    if
      in_flight t c.seq && c.st = st_waiting && (not c.queued) && operands_ready t c
    then begin
      charge_wait t c t.cyc;
      c.queued <- true;
      ready_insert t c.seq
    end;
    b := Slot_mask.pop_min t.wake row
  done

let resolve_branch t e =
  e.resolved <- true;
  ub_remove t e.seq;
  let mispredicted = e.taken <> e.pred_taken in
  emit_resolved t e.seq e.pc ~taken:e.taken ~mispredicted;
  t.policy.on_resolve ~seq:e.seq;
  (match t.flow with
  | Some fl when e.fi_id >= 0 ->
    fl.fl_cb ~cycle:t.cyc (Flowtrace.Resolved { id = e.fi_id; mispredicted })
  | Some _ | None -> ());
  if mispredicted then begin
    t.stats.Sim_stats.mispredicts <- t.stats.Sim_stats.mispredicts + 1;
    squash t ~boundary:e.seq;
    Predictor.restore t.predictor e.hist_snap;
    Predictor.force_history t.predictor ~taken:e.taken;
    (match e.instr with
    | Ir.Branch { target; _ } ->
      t.fetch_pc <- (if e.taken then target else e.pc + 1)
    | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Jump _ | Ir.Flush _ | Ir.Rdcycle _
    | Ir.Halt ->
      assert false);
    t.fetch_stopped <- false;
    t.fetch_resume <- t.cyc + t.cfg.Config.redirect_penalty
  end

let complete t =
  let b = t.cyc land t.completions_mask in
  let n = t.comp_len.(b) in
  if n > 0 then begin
    t.comp_len.(b) <- 0;
    let base = b * t.comp_cap in
    (* Buckets are kept sorted ascending at insertion, so the oldest
       mispredicted branch squashes the younger ones before they act;
       nothing schedules completions during the drain, so iterating the
       buffer in place is safe. *)
    for k = 0 to n - 1 do
      let seq = t.comp_buf.(base + k) in
      if in_flight t seq then begin
        let e = t.slots.(seq land t.slot_mask) in
        if e.st = st_inflight && e.done_cycle = t.cyc then begin
          e.st <- st_done;
          if e.is_miss then begin
            e.is_miss <- false;
            t.outstanding_misses <- t.outstanding_misses - 1
          end;
          t.value_buf.(seq land t.vb_mask) <- e.value;
          (match t.flow with
          | Some fl -> fl.fl_taint_buf.(seq land t.vb_mask) <- e.fi_v
          | None -> ());
          emit_seq t tag_completed seq e.pc;
          wake_consumers t seq;
          if Ir.is_branch e.instr then resolve_branch t e
        end
      end
    done
  end

(* --- issue ---------------------------------------------------------- *)

let latency_of_alu t op =
  match op with
  | Ir.Mul -> t.cfg.Config.mul_latency
  | Ir.Div | Ir.Rem -> t.cfg.Config.div_latency
  | Ir.Add | Ir.Sub | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr | Ir.Set _ ->
    t.cfg.Config.alu_latency

(* Conservative memory disambiguation: a load may issue only when every
   older in-flight store has a known address (i.e. has issued).  Result
   coding: -2 blocked (unknown older store address), -1 ready with no
   matching store, otherwise the youngest matching store's seq.  Walks
   the store queue, oldest first, up to the load. *)
let older_stores_scan t load_seq load_addr =
  let i = ref t.sq_head and youngest = ref (-1) in
  while !i < t.sq_tail do
    let s = t.sq.(!i land t.slot_mask) in
    let e = t.slots.(s land t.slot_mask) in
    if s >= load_seq then i := t.sq_tail
    else if not e.addr_known then begin
      youngest := -2;
      i := t.sq_tail
    end
    else begin
      if e.addr = load_addr then youngest := s;
      incr i
    end
  done;
  !youngest

let start t e done_cycle =
  e.started <- true;
  e.st <- st_inflight;
  e.done_cycle <- done_cycle;
  emit_seq t tag_issued e.seq e.pc;
  schedule_completion t e.seq done_cycle

let try_issue t e =
  match e.instr with
  | Ir.Alu { op; _ } ->
    e.value <- Ir.eval_alu op (src_value t e 0) (src_value t e 1);
    start t e (t.cyc + latency_of_alu t op);
    flow_issue t e ~forward_seq:(-1) ~touched_cache:false;
    true
  | Ir.Branch { cmp; _ } ->
    e.taken <- Ir.eval_cmp cmp (src_value t e 0) (src_value t e 1);
    start t e (t.cyc + t.cfg.Config.branch_exec_latency);
    flow_issue t e ~forward_seq:(-1) ~touched_cache:false;
    true
  | Ir.Store _ ->
    e.addr <- mask_addr t (src_value t e 0 + src_value t e 1);
    e.addr_known <- true;
    e.value <- src_value t e 2;
    start t e (t.cyc + 1);
    flow_issue t e ~forward_seq:(-1) ~touched_cache:false;
    true
  | Ir.Flush _ ->
    e.addr <- mask_addr t (src_value t e 0 + src_value t e 1);
    e.addr_known <- true;
    Cache.Hierarchy.flush t.hierarchy e.addr;
    start t e (t.cyc + 1);
    flow_issue t e ~forward_seq:(-1) ~touched_cache:true;
    true
  | Ir.Rdcycle _ ->
    e.value <- t.cyc;
    start t e (t.cyc + 1);
    true
  | Ir.Load _ ->
    let addr = mask_addr t (src_value t e 0 + src_value t e 1) in
    let store_seq = older_stores_scan t e.seq addr in
    if store_seq = -2 then false
    else if store_seq >= 0 then begin
      e.addr <- addr;
      e.addr_known <- true;
      e.value <- t.slots.(store_seq land t.slot_mask).value;
      start t e (t.cyc + t.cfg.Config.forward_latency);
      (* a store-to-load forward never touches the cache hierarchy *)
      flow_issue t e ~forward_seq:store_seq ~touched_cache:false;
      true
    end
    else begin
      (* an L1 miss needs an MSHR; when all are busy the load waits *)
      let misses_l1 =
        Cache.Hierarchy.probe t.hierarchy addr <> Cache.Hierarchy.L1
      in
      if misses_l1 && t.outstanding_misses >= t.cfg.Config.mshrs then false
      else begin
        e.addr <- addr;
        e.addr_known <- true;
        if misses_l1 then begin
          e.is_miss <- true;
          t.outstanding_misses <- t.outstanding_misses + 1
        end;
        let vis = t.policy.load_visibility ~seq:e.seq in
        let lat =
          match vis with
          | Normal ->
            let level = Cache.Hierarchy.load_level t.hierarchy addr in
            if t.cfg.Config.next_line_prefetch && level <> Cache.Hierarchy.L1
            then
              Cache.Hierarchy.prefetch t.hierarchy
                (mask_addr t (addr + t.cfg.Config.l1.Config.line_words));
            Cache.Hierarchy.latency_of_level t.hierarchy level
          | Invisible -> Cache.Hierarchy.load_latency t.hierarchy addr
        in
        e.value <- t.memory.(addr);
        start t e (t.cyc + lat);
        (* an invisible (delayed-visibility) load leaves no cache trace *)
        flow_issue t e ~forward_seq:(-1) ~touched_cache:(vis = Normal);
        true
      end
    end
  | Ir.Jump _ | Ir.Halt -> false

(* Would this ready load be refused by memory ordering right now?  Pure:
   mirrors the [try_issue] load path without touching cache or MSHR
   state, so attribution can classify entries past the issue budget. *)
let load_order_blocked t e =
  match e.instr with
  | Ir.Load _ ->
    let addr = mask_addr t (src_value t e 0 + src_value t e 1) in
    let store_seq = older_stores_scan t e.seq addr in
    if store_seq = -2 then true
    else if store_seq >= 0 then false
    else
      Cache.Hierarchy.probe t.hierarchy addr <> Cache.Hierarchy.L1
      && t.outstanding_misses >= t.cfg.Config.mshrs
  | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _ | Ir.Rdcycle _
  | Ir.Halt ->
    false

let issue t =
  (* Only the ready queue is visited, oldest first, so each operand-ready
     waiting entry is charged to exactly one stall cause unless it
     issues; entries still waiting on an operand are charged in bulk
     (see [charge_wait]).  Issue decisions (and the legacy policy-stall
     counters) are confined to [budget > 0]: the policy is never
     consulted for entries beyond the budget. *)
  let budget = ref t.cfg.Config.issue_width in
  let kept = ref 0 in
  for i = 0 to t.ready_len - 1 do
    let seq = t.ready.(i) in
    let e = t.slots.(seq land t.slot_mask) in
    if !budget > 0 then begin
      if t.policy.may_execute ~seq then
        if try_issue t e then begin
          (match t.audit with
          | Some a -> audit_close t a e Audit.Issued
          | None -> ());
          decr budget
        end
        else charge_entry t e Stall.Lsq_order
      else begin
        e.policy_stalled <- true;
        t.stats.Sim_stats.policy_stall_cycles <-
          t.stats.Sim_stats.policy_stall_cycles + 1;
        if is_transmitter e.instr then
          t.stats.Sim_stats.transmit_stall_cycles <-
            t.stats.Sim_stats.transmit_stall_cycles + 1;
        charge_entry t e Stall.Policy_gate;
        match t.audit with
        | Some a -> audit_gate t a e seq
        | None -> ()
      end
    end
    else if load_order_blocked t e then charge_entry t e Stall.Lsq_order
    else charge_entry t e Stall.Exec_port;
    (* issued entries leave the queue *)
    if e.st = st_waiting then begin
      t.ready.(!kept) <- seq;
      incr kept
    end
    else e.queued <- false
  done;
  t.ready_len <- !kept;
  if t.head_seq < t.tail_seq then begin
    let h = t.slots.(t.head_seq land t.slot_mask) in
    if h.st = st_waiting && not h.queued then
      t.head_stall_cause <- Stall.cause_index Stall.Operand_wait
  end;
  t.last_issue_cyc <- t.cyc

(* --- commit --------------------------------------------------------- *)

let commit_one t e =
  let s = t.stats in
  s.Sim_stats.committed <- s.Sim_stats.committed + 1;
  if e.policy_stalled then begin
    s.Sim_stats.restricted_committed <- s.Sim_stats.restricted_committed + 1;
    if is_transmitter e.instr then
      s.Sim_stats.restricted_transmitters <- s.Sim_stats.restricted_transmitters + 1
  end;
  if is_transmitter e.instr then
    s.Sim_stats.committed_transmitters <- s.Sim_stats.committed_transmitters + 1;
  (match e.instr with
  | Ir.Load _ -> s.Sim_stats.committed_loads <- s.Sim_stats.committed_loads + 1
  | Ir.Store _ ->
    s.Sim_stats.committed_stores <- s.Sim_stats.committed_stores + 1;
    t.sq_head <- t.sq_head + 1;
    t.memory.(e.addr) <- e.value;
    Cache.Hierarchy.store_commit t.hierarchy e.addr
  | Ir.Branch _ ->
    s.Sim_stats.committed_branches <- s.Sim_stats.committed_branches + 1;
    Predictor.update t.predictor ~pc:e.pc ~history:e.hist_snap ~taken:e.taken
  | Ir.Halt -> t.is_halted <- true
  | Ir.Alu _ | Ir.Jump _ | Ir.Flush _ | Ir.Rdcycle _ -> ());
  let d = def_reg e.instr in
  if d >= 0 then begin
    t.regs.(d) <- e.value;
    if t.rename.(d) = e.seq then t.rename.(d) <- -1
  end;
  (match t.flow with
  | Some fl ->
    (* Shadow architectural state follows the real one: taint (or clear)
       exactly what this commit wrote. *)
    (match e.instr with
    | Ir.Store _ -> fl.fl_taint_mem.(e.addr) <- e.fi_v
    | Ir.Alu _ | Ir.Load _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      ());
    if d >= 0 then fl.fl_taint_regs.(d) <- e.fi_v;
    if e.fi_id >= 0 then
      fl.fl_cb ~cycle:t.cyc (Flowtrace.Committed { id = e.fi_id })
  | None -> ());
  t.policy.on_commit ~seq:e.seq;
  emit_seq t tag_committed e.seq e.pc;
  t.head_seq <- e.seq + 1;
  t.head_stall_cause <- -1

let commit t =
  let budget = ref t.cfg.Config.commit_width in
  while
    !budget > 0
    && t.head_seq < t.tail_seq
    && (not t.is_halted)
    && t.slots.(t.head_seq land t.slot_mask).st = st_done
  do
    commit_one t t.slots.(t.head_seq land t.slot_mask);
    decr budget
  done

(* --- top level ------------------------------------------------------ *)

let step t =
  if not t.is_halted then begin
    commit t;
    if not t.is_halted then begin
      complete t;
      issue t;
      fetch t;
      let occ = t.tail_seq - t.head_seq in
      if occ > t.stats.Sim_stats.max_rob_occupancy then
        t.stats.Sim_stats.max_rob_occupancy <- occ
    end;
    t.cyc <- t.cyc + 1;
    t.stats.Sim_stats.cycles <- t.cyc
  end

let run_loop ~max_cycles ~deadlock_window ~stop t =
  let last_committed = ref t.stats.Sim_stats.committed in
  let last_progress_cycle = ref t.cyc in
  while (not t.is_halted) && not (stop ()) do
    if t.cyc > max_cycles then failwith "Pipeline.run: max_cycles exceeded";
    step t;
    if t.stats.Sim_stats.committed <> !last_committed then begin
      last_committed := t.stats.Sim_stats.committed;
      last_progress_cycle := t.cyc
    end
    else if t.cyc - !last_progress_cycle > deadlock_window then
      raise
        (Deadlock
           {
             dl_cycle = t.cyc;
             dl_last_commit_cycle = !last_progress_cycle;
             dl_policy = t.policy.policy_name;
             dl_head_seq = t.head_seq;
             dl_head_pc = (try (entry_exn t t.head_seq).pc with _ -> -1);
             dl_head_cause =
               (if t.head_stall_cause < 0 then None
                else Some (Stall.cause_of_index t.head_stall_cause));
             dl_recent_events = recent_events t;
           })
  done

let run ?(max_cycles = 100_000_000) ?(deadlock_window = 100_000) t =
  run_loop ~max_cycles ~deadlock_window ~stop:(fun () -> false) t

let run_until_committed ?(max_cycles = 100_000_000) ?(deadlock_window = 100_000)
    t target =
  run_loop ~max_cycles ~deadlock_window
    ~stop:(fun () -> t.stats.Sim_stats.committed >= target)
    t

let warm_start t ~regs ~pc =
  if t.cyc <> 0 || t.tail_seq <> 0 then
    invalid_arg "Pipeline.warm_start: pipeline has already run";
  if Array.length regs <> Ir.num_regs then
    invalid_arg "Pipeline.warm_start: bad register file size";
  if pc < 0 || pc >= Array.length t.program then
    invalid_arg (Printf.sprintf "Pipeline.warm_start: pc %d out of range" pc);
  Array.blit regs 0 t.regs 0 Ir.num_regs;
  t.fetch_pc <- pc

(* Smallest power of two strictly greater than the largest latency any
   instruction can be scheduled with (all latencies come from the config,
   which [validate] requires to be positive), so a bucket is always
   drained before the wheel can wrap back onto it. *)
let completion_wheel_size cfg =
  let open Config in
  let worst =
    List.fold_left max 1
      [
        cfg.alu_latency;
        cfg.mul_latency;
        cfg.div_latency;
        cfg.branch_exec_latency;
        cfg.forward_latency;
        cfg.l1.hit_latency;
        cfg.l2.hit_latency;
        cfg.memory_latency;
      ]
  in
  let rec pow2 n = if n > worst then n else pow2 (2 * n) in
  pow2 1

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create ?(mem_init = fun _ -> ()) ?audit ?memory ?hierarchy
    ?predictor cfg ~policy program =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pipeline.create: bad config: " ^ msg));
  (match Ir.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pipeline.create: bad program: " ^ msg));
  let rob = cfg.Config.rob_size in
  let arena = pow2_at_least rob in
  let vb = pow2_at_least (2 * rob) in
  let memory =
    match memory with
    | Some m ->
      if Array.length m <> cfg.Config.mem_words then
        invalid_arg
          (Printf.sprintf
             "Pipeline.create: adopted memory has %d words, config wants %d"
             (Array.length m) cfg.Config.mem_words);
      m
    | None -> Array.make cfg.Config.mem_words 0
  in
  let hierarchy =
    match hierarchy with
    | Some h -> h
    | None -> Cache.Hierarchy.create cfg
  in
  let predictor =
    match predictor with
    | Some p -> p
    | None -> Predictor.create cfg
  in
  let hist0 = Predictor.snapshot predictor in
  let wheel = completion_wheel_size cfg in
  (* A bucket holds only seqs completing at one absolute cycle T; each
     was issued at T - lat for one of <= 8 distinct configured
     latencies, at most issue_width per cycle — rob + 16*width is a
     comfortable over-bound even with squash-then-reissue reuse. *)
  let comp_cap = rob + (16 * cfg.Config.issue_width) in
  let t =
    {
      cfg;
      program;
      rob;
      slot_mask = arena - 1;
      vb_mask = vb - 1;
      regs = Array.make Ir.num_regs 0;
      memory;
      mem_mask = Array.length memory - 1;
      hierarchy;
      predictor;
      slots =
        Array.init arena (fun _ ->
            {
              seq = -1;
              pc = 0;
              instr = Ir.Halt;
              n_srcs = 0;
              src_kind = Array.make 3 0;
              src_val = Array.make 3 0;
              st = st_waiting;
              done_cycle = 0;
              value = 0;
              addr = 0;
              addr_known = false;
              pred_taken = false;
              taken = false;
              resolved = false;
              started = false;
              is_miss = false;
              policy_stalled = false;
              queued = false;
              wait_from = 0;
              gate = None;
              fi_id = -1;
              fi_v = -1;
              fi_src = Array.make 3 (-1);
              rename_snap = Array.make Ir.num_regs (-1);
              hist_snap = hist0;
            });
      value_buf = Array.make vb 0;
      rename = Array.make Ir.num_regs (-1);
      head_seq = 0;
      tail_seq = 0;
      fetch_pc = 0;
      fetch_resume = 0;
      fetch_stopped = false;
      outstanding_misses = 0;
      cyc = 0;
      is_halted = false;
      policy = always_execute_policy;
      stats = Sim_stats.create ();
      stall = Stall.create ~num_pcs:(Array.length program);
      comp_buf = Array.make (wheel * comp_cap) 0;
      comp_len = Array.make wheel 0;
      comp_cap;
      completions_mask = wheel - 1;
      ub = Array.make rob 0;
      ub_len = 0;
      wake = Slot_mask.create ~rows:arena ~bits:arena;
      ready = Array.make rob 0;
      ready_len = 0;
      last_issue_cyc = -1;
      sq = Array.make arena 0;
      sq_head = 0;
      sq_tail = 0;
      tracer = None;
      stall_tracer = None;
      flow = None;
      recent_buf = Array.make (recent_events_capacity * 5) 0;
      recent_len = 0;
      head_stall_cause = -1;
      audit;
    }
  in
  mem_init t.memory;
  t.policy <- policy cfg program t;
  t
