(** The speculative out-of-order core.

    A cycle-level model with the structures secure-speculation defenses
    care about:

    - fetch follows the branch predictor and really executes down
      mispredicted paths (wrong-path loads access and fill the caches);
    - register renaming with per-branch rename/history snapshots for
      single-cycle squash recovery;
    - a unified ROB/issue window: any operand-ready instruction may begin
      execution, subject to the active {e policy}'s [may_execute] gate —
      this gate is where every defense in the paper plugs in;
    - a conservative LSQ: loads wait until all older store addresses are
      known, with store-to-load forwarding (no memory-dependence
      speculation, hence no Spectre-v4 surface);
    - stores update memory and caches only at commit, so the only
      speculative microarchitectural side effects are load/flush cache
      mutations — exactly the transmitters the defenses gate.

    Per-cycle phase order: commit, complete (branch resolution + squash),
    issue, fetch/rename/dispatch. *)

type t

(** {1 Defense policies}

    A policy is a record of callbacks invoked by the pipeline.  Policies
    identify in-flight instructions by their {e sequence number} (unique,
    monotonically increasing).  [may_execute] is consulted each cycle for
    every operand-ready instruction before it is allowed to begin
    execution. *)

type load_visibility =
  | Normal  (** the access updates cache state (fills, LRU) as usual *)
  | Invisible
      (** the access is served at its current latency without mutating any
          cache state — no fill, no LRU update.  This is how delay-on-miss
          serves speculative L1 hits: correct data, no footprint. *)

type policy = {
  policy_name : string;
  on_decode : seq:int -> unit;
      (** called in fetch order as instructions enter the window *)
  on_resolve : seq:int -> unit;  (** a conditional branch resolved *)
  on_squash : boundary:int -> unit;
      (** every seq strictly greater than [boundary] was squashed *)
  on_commit : seq:int -> unit;
  may_execute : seq:int -> bool;
  load_visibility : seq:int -> load_visibility;
      (** consulted when an approved load accesses the hierarchy *)
  explain : seq:int -> Levioso_telemetry.Audit.reason;
      (** why [may_execute] just refused [seq] — consulted (once per
          restriction episode, at the first refusal) only when auditing
          is enabled, so it may allocate.  Policies with no better
          answer inherit [Unspecified] from {!always_execute_policy}. *)
}

type policy_maker = Config.t -> Levioso_ir.Ir.program -> t -> policy
(** Policies are created against a live pipeline so they can inspect it
    through the view functions below. *)

val always_execute_policy : policy
(** The trivial policy (no restrictions); building block for baselines. *)

(** {1 Construction and execution} *)

val create :
  ?mem_init:(int array -> unit) ->
  ?audit:Levioso_telemetry.Audit.t ->
  ?memory:int array ->
  ?hierarchy:Cache.Hierarchy.h ->
  ?predictor:Predictor.t ->
  Config.t ->
  policy:policy_maker ->
  Levioso_ir.Ir.program ->
  t
(** [audit] enables restriction provenance: every policy-refusal episode
    is recorded as one [Levioso_telemetry.Audit] event when it closes
    (the instruction issues or is squashed).  Episodes still open when
    the run halts are not recorded, so the audited cycle total is a
    lower bound on — and in practice almost equal to —
    [Sim_stats.policy_stall_cycles].  Off (no audit argument) the hooks
    cost one branch per refusal.

    [memory], [hierarchy] and [predictor] let the two-tier sampled
    engine adopt live state instead of starting cold: an adopted memory
    array is aliased (not copied; it must have exactly
    [cfg.mem_words] words or @raise Invalid_argument), and an adopted
    hierarchy/predictor is mutated in place — this is how a detailed
    interval inherits the fast tier's functional warming.  [mem_init]
    still runs on whatever memory ends up in use. *)

val step : t -> unit
(** Advance one cycle. *)

val run : ?max_cycles:int -> ?deadlock_window:int -> t -> unit
(** Run until the program halts.
    @raise Deadlock when nothing commits for [deadlock_window] cycles
    (default 100k)
    @raise Failure when [max_cycles] (default 100M) is exceeded. *)

val run_until_committed : ?max_cycles:int -> ?deadlock_window:int -> t -> int -> unit
(** [run_until_committed t n] runs until at least [n] instructions have
    committed in total (or the program halts).  The stop is checked at
    cycle granularity, so up to [commit_width - 1] extra instructions
    may commit past [n]; callers account with actual
    [Sim_stats.committed] deltas.  Same exceptions as {!run}. *)

val warm_start : t -> regs:int array -> pc:int -> unit
(** Seed architectural state before the first cycle: copy [regs] into
    the register file and point fetch at [pc].  For resuming from a
    checkpoint; @raise Invalid_argument once the pipeline has run. *)

val halted : t -> bool

(** {1 Architectural and microarchitectural state} *)

val regs : t -> int array
val mem : t -> int array
val cycle : t -> int
val stats : t -> Sim_stats.t
val hierarchy : t -> Cache.Hierarchy.h
val predictor : t -> Predictor.t
val config : t -> Config.t

val arch_pc : t -> int
(** The architectural PC: the next-to-commit instruction's PC, or the
    fetch PC when the window is empty (an empty window has no unresolved
    branches, so fetch is on the correct path).  This is where a
    checkpoint handoff resumes the fast tier. *)

val stall_attribution : t -> Levioso_telemetry.Stall.t
(** Per-cycle, per-static-PC stall attribution.  Every cycle, each
    in-window instruction still waiting to issue is charged to exactly
    one {!Levioso_telemetry.Stall.cause}; a cycle in which fetch is
    blocked by a full window adds one [Rob_full] charge against the
    fetch PC.  By construction the [Policy_gate] count equals
    [Sim_stats.policy_stall_cycles].  Instructions beyond the cycle's
    spent issue width are charged [Exec_port] (or [Lsq_order] for
    order-blocked loads) without consulting the policy, mirroring the
    issue loop.

    [Operand_wait] cycles are charged in bulk, not per cycle: when the
    instruction wakes, when it is squashed, or when this function is
    called.  A call first settles every pending wait through the last
    cycle that ran an issue stage, so the table it returns is exactly
    the per-cycle one at any cycle boundary.  Calling it again, or
    calling it and running on, counts nothing twice.  Read the table
    through this function after running: a table held across
    {!step}s lacks the waits still pending at the time of the read. *)

val audit : t -> Levioso_telemetry.Audit.t option
(** The restriction-provenance recorder passed to {!create}, if any. *)

(** {1 View functions for policies}

    All take sequence numbers.  Unless stated otherwise they may only be
    applied to in-flight sequence numbers. *)

val in_flight : t -> int -> bool

val instr_of : t -> int -> Levioso_ir.Ir.instr

val pc_of : t -> int -> int

val oldest_seq : t -> int
(** Oldest in-flight sequence number (= next to commit). *)

val next_seq : t -> int
(** The sequence number the next dispatched instruction will get. *)

val is_unresolved_branch : t -> int -> bool
(** True for an in-flight conditional branch that has not resolved.
    False for anything else, including committed/squashed seqs. *)

val exists_older_unresolved_branch : t -> seq:int -> bool

val unresolved_branch_count : t -> int
(** Number of in-flight unresolved conditional branches. *)

val unresolved_branch : t -> int -> int
(** [unresolved_branch t i] is the seq of the [i]-th oldest in-flight
    unresolved branch, [0 <= i < unresolved_branch_count t].  With the
    count this walks the branches without allocating; the older ones
    than [seq] are a prefix.
    @raise Invalid_argument on an index out of range. *)

val older_unresolved_branches : t -> seq:int -> int list
(** Oldest first.  Allocates a list: for explanation and tracing paths;
    per-cycle checks use {!unresolved_branch}. *)

val load_address : t -> int -> int
(** For an in-flight load whose address operands are ready: the (masked,
    so non-negative) effective address it would access.  [-1] for
    non-loads or loads with unready operands.  Pure — no cache or
    pipeline state is touched, and nothing is allocated; this is what
    lets address-sensitive policies (delay-on-miss) decide before the
    access happens. *)

val load_address_if_ready : t -> int -> int option
(** {!load_address} with [None] for [-1]. *)

val producer_count : t -> int -> int
(** Number of in-flight producers of the instruction's register
    operands, captured at rename time.  Producers that had already
    committed at rename time are not counted; a register read twice
    counts twice. *)

val producer : t -> int -> int -> int
(** [producer t seq i] is the sequence number of the [i]-th producer
    ([0 <= i < producer_count t seq]), in operand order.  The producer
    may have committed since rename.
    @raise Invalid_argument on an index out of range. *)

val producers_of : t -> int -> int list
(** All the producers, in operand order.  Allocates a list: for
    explanation paths; per-cycle checks use {!producer}. *)

val arena_size : t -> int
(** Number of ROB arena slots: the smallest power of two [>= rob_size].
    [seq land (arena_size t - 1)] is injective over the in-flight window,
    so policies may key per-instruction state by it. *)

val is_transmitter : Levioso_ir.Ir.instr -> bool

(** {1 Tracing}

    An optional event stream for debugging and instrumentation: install a
    callback and every microarchitectural event is reported with its
    cycle.  Tracing has zero cost when no tracer is installed. *)

type event =
  | Fetched of { seq : int; pc : int }
  | Issued of { seq : int; pc : int }
  | Completed of { seq : int; pc : int }
  | Committed of { seq : int; pc : int }
  | Branch_resolved of { seq : int; pc : int; taken : bool; mispredicted : bool }
  | Squashed of { boundary : int; count : int }

val set_tracer : t -> (cycle:int -> event -> unit) -> unit

val set_stall_tracer :
  t -> (cycle:int -> seq:int -> pc:int -> cause:Levioso_telemetry.Stall.cause -> unit) -> unit
(** Per-cycle stall attribution stream: invoked once per waiting
    in-window instruction per cycle, with the cause it was charged to
    (the same charge recorded in {!stall_attribution}; [Rob_full]
    fetch-side charges have no instruction and are not reported).  This
    is what timeline rendering uses to label gated instructions.  Zero
    cost when not installed.

    Callback order: [Policy_gate], [Lsq_order] and [Exec_port] arrive
    during the cycle they are charged in.  [Operand_wait] callbacks are
    deferred to the flush that charges them (see {!stall_attribution}),
    so they arrive late, with [cycle] naming the cycle charged, not the
    current one.  For any one instruction all callbacks still arrive in
    ascending cycle order, and all of them have arrived by the time it
    issues or is squashed; across instructions the order is not
    cycle order. *)

val set_flow_tracer :
  t ->
  secret_ranges:(int * int) list ->
  (cycle:int -> Levioso_telemetry.Flowtrace.event -> unit) ->
  unit
(** Speculative information-flow (taint) tracing.  Taint is born when a
    load reads an address inside one of [secret_ranges] (inclusive
    [lo, hi] pairs) from the memory hierarchy, propagates through
    register/memory data flow and load-address computation, and is
    reported as a {!Levioso_telemetry.Flowtrace.event} stream: node
    creation, data/address/speculation edges, secret sources, cache
    transmits, and branch-resolution / commit / squash outcomes.  Node
    ids are monotonic across the run (sequence numbers are reused after
    squashes; node ids never are).  Install before {!run}, like the
    other tracers.  Zero cost — and bit-identical architectural results,
    stats and stall attribution — when not installed.
    @raise Invalid_argument on a range with [lo < 0] or [lo > hi]. *)

val event_to_string : event -> string
(** The instructions whose {e execution} leaks through the cache channel:
    loads and flushes.  Stores are not transmitters here because they only
    touch the cache at commit (non-speculatively). *)

(** {1 Diagnostics} *)

val recent_events : t -> (int * event) list
(** A bounded window (last 32) of [(cycle, event)] pairs, oldest first.
    Always on — kept in a ring so the cost is one store per event. *)

type deadlock = {
  dl_cycle : int;  (** cycle at which the deadlock was declared *)
  dl_last_commit_cycle : int;  (** cycle of the last observed commit *)
  dl_policy : string;
  dl_head_seq : int;
  dl_head_pc : int;  (** -1 when the head entry is gone *)
  dl_head_cause : Levioso_telemetry.Stall.cause option;
      (** what the head-of-window instruction was charged to on its most
          recent waiting cycle — for a policy bug (gating the oldest
          instruction) this reads [Policy_gate] *)
  dl_recent_events : (int * event) list;  (** see {!recent_events} *)
}

exception Deadlock of deadlock
(** No instruction committed for an implausibly long time — almost always a
    defense policy bug (gating the oldest instruction).  A printer is
    registered, so an uncaught [Deadlock] renders via
    {!deadlock_to_string}. *)

val deadlock_to_string : deadlock -> string
