(** The speculative out-of-order core.

    A cycle-level model with the structures secure-speculation defenses
    care about:

    - fetch follows the branch predictor and really executes down
      mispredicted paths (wrong-path loads access and fill the caches);
    - register renaming with a per-entry undo log (the mapping each
      destination replaced) and per-branch history snapshots for
      single-cycle squash recovery;
    - a unified ROB/issue window: any operand-ready instruction may begin
      execution, subject to the active {e policy}'s [may_execute] gate —
      this gate is where every defense in the paper plugs in — which is
      asked again only when the policy's [recheck] says its answer can
      have changed;
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
    monotonically increasing).  [may_execute] is consulted for an
    operand-ready instruction before it is allowed to begin execution:
    in every issue stage that reaches it within the issue width, or,
    after a refusal, only once an event named by the policy's [recheck]
    has happened. *)

type load_visibility =
  | Normal  (** the access updates cache state (fills, LRU) as usual *)
  | Invisible
      (** the access is served at its current latency without mutating any
          cache state — no fill, no LRU update.  This is how delay-on-miss
          serves speculative L1 hits: correct data, no footprint. *)

type recheck =
  | Every_cycle
      (** ask again in every issue stage: the answer may change at any
          time, even within one issue stage (a policy that reads cache
          contents, which loads issued earlier in the same stage
          change) *)
  | On_resolve
      (** a refusal can lift only when a branch resolves (a squash
          follows only a resolution) *)
  | On_resolve_or_commit
      (** a refusal can lift only when a branch resolves or an
          instruction commits *)
(** When a [may_execute] refusal can turn into an approval.  Unless it
    is [Every_cycle], the pipeline relies on two invariants of the
    policy: a refusal holds until the next such event (events are
    applied at the next issue stage, which follows that cycle's commit
    and branch resolution), and an approval never reverts.  It then
    parks a refused instruction until the event, and an approved load
    blocked by an older store until that store issues, without asking
    again; the results are the same as under [Every_cycle], and only
    the number of [may_execute] calls drops.  A policy for which the
    invariants do not hold must use [Every_cycle]. *)

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
  recheck : recheck;
      (** when a refusal can lift; {!always_execute_policy} has
          [Every_cycle], so a policy that does not set it is asked in
          every issue stage *)
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
    still runs on whatever memory ends up in use.

    Without [memory], every pipeline allocates its own [cfg.mem_words]
    image (8 MB at the default config) rather than borrowing a reused
    per-domain buffer the way {!Sampler.run} does.  The image escapes:
    {!mem} returns it to callers that read it after the run, often with
    a second pipeline alive in the same domain (the fuzz oracles'
    observations, the attack harness, [Levioso_api]'s emulator check,
    tests comparing two runs' memories).  A reused buffer would make
    those pipelines share one image. *)

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

val restart : t -> regs:int array -> pc:int -> unit
(** Reuse a pipeline for a new run from [regs] and [pc]: the same as a
    fresh {!create} adopting this pipeline's memory, hierarchy and
    predictor, with [regs] as its register file and fetch starting at
    [pc], without allocating the window.
    Every dynamic field is reset in place — window, counters and cycle,
    completion wheel, wake rows, ready, store and branch queues, rename
    table, event ring — and {!stats} and
    {!stall_attribution} start from fresh tables (ones returned before
    the restart keep their values).  The stored policy maker runs again,
    so the new run gets a fresh policy.  Memory, hierarchy and predictor
    are left as they are, as are the installed tracers and audit
    recorder; a flow tracer's taint shadows are cleared, and its node
    ids keep counting.  The sampled engine calls this once per detailed
    interval after the first.
    @raise Invalid_argument on a bad register file size or [pc]. *)

val halted : t -> bool

(** {1 Architectural and microarchitectural state} *)

val regs : t -> int array
val mem : t -> int array
val cycle : t -> int

val stats : t -> Sim_stats.t
(** The run's counters, after settling the parked refusals' pending
    cycles into [policy_stall_cycles] and [transmit_stall_cycles] the
    way {!stall_attribution} settles its table; {!run} and
    {!run_until_committed} settle on return too, so a record held
    across them is current after each. *)

val hierarchy : t -> Cache.Hierarchy.h
val predictor : t -> Predictor.t

val arch_pc : t -> int
(** The architectural PC: the next-to-commit instruction's PC, or the
    fetch PC when the window is empty (an empty window has no unresolved
    branches, so fetch is on the correct path).  This is where the
    sampled engine's handoff resumes the fast tier. *)

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
    called.  So are the [Policy_gate] cycles of a parked refusal and
    the [Lsq_order] cycles of a load parked on an older store (see
    {!recheck}): when the refusal lifts or the store issues, when the
    instruction is squashed (before its audit episode closes), or on a
    read; an issue stage whose width ran out charges a parked refusal
    younger than its last issue live, like any instruction beyond the
    width.  A call first settles every pending charge through the last
    cycle that ran an issue stage, so the table it returns is exactly
    the per-cycle one at any cycle boundary.  Calling it again, or
    calling it and running on, counts nothing twice.  Read the table
    through this function after running: a table held across
    {!step}s lacks the charges still pending at the time of the read. *)

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

val max_operands : int
(** The most register or immediate operands an instruction has (3, a
    store's base, offset and source). *)

val operand_producer : t -> int -> int -> int
(** [operand_producer t seq i] is the sequence number of the in-flight
    producer of the [i]-th operand of [seq], captured at rename time,
    or [-1] when that operand was a literal (an immediate, or a register
    whose producer had already committed), when [seq] has fewer than
    [i + 1] operands or [i] is outside [[0, max_operands)], or when
    [seq] is not in flight.  Never raises and never allocates: policies
    walk [i] from [0] to [max_operands - 1].  The producer may have
    committed since rename; a register read twice appears twice. *)

val producers_of : t -> int -> int list
(** The in-flight producers, in operand order.  Allocates a list: for
    explanation paths; per-cycle checks use {!operand_producer}. *)

val arena_size : t -> int
(** Number of ROB arena slots: the smallest power of two [>= rob_size].
    [seq land (arena_size t - 1)] is injective over the in-flight window,
    so policies may key per-instruction state by it. *)

val is_transmitter : Levioso_ir.Ir.instr -> bool
(** The instructions whose {e execution} leaks through the cache channel:
    loads and flushes.  Stores are not transmitters here because they only
    touch the cache at commit (non-speculatively). *)

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

    Callback order: [Exec_port], and the first [Policy_gate] or
    [Lsq_order] of a refusal or a blocked load, arrive during the cycle
    they are charged in.  [Operand_wait] callbacks, and the
    [Policy_gate] and [Lsq_order] callbacks of a parked instruction,
    are deferred to the settlement that charges them (see
    {!stall_attribution}), so they arrive late, with [cycle] naming the
    cycle charged, not the current one.  For any one instruction all
    callbacks still arrive in ascending cycle order, and all of them
    have arrived by the time it issues or is squashed, or the table or
    the counters are read; across instructions the order is not cycle
    order. *)

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

(** {1 Diagnostics} *)

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
  dl_recent_events : (int * event) list;
      (** the last 32 [(cycle, event)] pairs, oldest first *)
}

exception Deadlock of deadlock
(** No instruction committed for an implausibly long time — almost always a
    defense policy bug (gating the oldest instruction).  A printer is
    registered, so an uncaught [Deadlock] renders via
    {!deadlock_to_string}. *)

val deadlock_to_string : deadlock -> string
