(** The command-line layer every front end shares.

    [levioso_sim], [bench] and [levioso_fuzz] take a workload × policy
    matrix, a core configuration, sampling, a domain count and the
    live-monitor flags; [levioso_sim] and [bench] also run their matrix
    here or, with [--remote], on a [levioso_serve] daemon.  Each of those
    flags is declared here once, so its name, documentation and checking
    are the same everywhere.  A bad value is a usage error naming the
    flag (Cmdliner's exit 124, e.g. [option '-w': unknown workload
    "nosuch" (known: ...)]) at parse time, never an exception in the
    middle of a run.  {!run_matrix} is the one way a matrix runs,
    locally or on the daemon, and {!runtime_error} the one way a
    command fails at run time. *)

open Cmdliner

(** {1 Converters} *)

val workload : Levioso_workload.Workload.t Arg.conv
(** A workload name, resolved through {!Levioso_serve.Catalog}: suite
    kernels, extras like [stream-xl], compiled Lev workloads and the
    [spectre-v1] gadget. *)

val policy : string Arg.conv
(** A defense-policy name, checked against {!Levioso_core.Registry}. *)

val checked_int : (int -> (unit, string) result) -> int Arg.conv
(** An integer that [check] accepts; its [Error] is the usage error. *)

val non_negative : int Arg.conv
(** An integer [>= 0]. *)

val positive_float : float Arg.conv
(** A finite number [> 0]. *)

(** {1 Terms} *)

val workloads : Levioso_workload.Workload.t list Term.t
(** [-w]/[--workload NAME], repeatable; default [Suite.all]. *)

val policies : string list Term.t
(** [-p]/[--policy NAME], repeatable; default [Registry.names]. *)

val config : Levioso_uarch.Config.t Term.t
(** [--rob N], [--predictor KIND] and [--budget K] over
    [Config.default].  Each value is checked with [Config.validate], so
    [--rob 0] is rejected while parsing. *)

val audit : bool Term.t
(** [--audit]: record restriction provenance. *)

val sample : Levioso_uarch.Sampler.spec option Term.t
(** [--sample N:W[:P]|off], parsed by [Sampler.parse]; default [None]
    ([off]). *)

val jobs : doc:string -> int Term.t
(** [-j]/[--jobs N] with [N >= 0], documented by [doc].  0, the default,
    means every core and is resolved here to
    [Parallel.default_size ()], so the result is always [>= 1]. *)

val monitor :
  (label:string -> unit -> Levioso_telemetry.Monitor.t option) Term.t
(** [--progress] and [--metrics FILE].  The function builds the run's
    monitor, or [None] when neither was given.  The status line is
    drawn on stderr when it is a terminal; [--progress] forces it when
    stderr is piped. *)

val remote : string option Term.t
(** [--remote SOCKET]: run the matrix on the [levioso_serve] daemon
    listening at [SOCKET] instead of in this process. *)

(** {1 Running a matrix} *)

val run_matrix :
  prog:string ->
  ?remote:string ->
  ?cache:bool ->
  ?monitor:Levioso_telemetry.Monitor.t ->
  jobs:int ->
  local:(Levioso_serve.Protocol.cell -> 'a) ->
  of_remote:(Levioso_serve.Client.result_cell -> 'a) ->
  Levioso_serve.Protocol.cell list ->
  'a list
(** [run_matrix ~prog ~jobs ~local ~of_remote cells] runs [cells] and
    returns their results in the same order.  Without [remote], [local]
    runs every cell on a pool of [jobs] domains.  With [remote], the
    cells go to the daemon at that socket as one batch ([cache], default
    [true], lets it use its result store): one stderr line reports the
    batch's timings, [of_remote] turns each streamed result into the
    caller's, and each cell the daemon failed gets one stderr line and
    then runs here through [local].  A daemon that cannot be reached,
    reports an error or breaks the exchange ends the run through
    {!runtime_error}, with a message naming the socket first.
    [monitor] counts every cell and is closed once they all ran. *)

(** {1 Output} *)

val overhead_table :
  policies:string list -> workloads:string list -> int list -> string
(** [overhead_table ~policies ~workloads cycles] renders the matrix's
    cycles, given workload-major (one per workload × policy cell), as one
    row per workload and one column per policy.  Each cell shows its
    overhead against the row's [unsafe] cell when the policy list has one
    and its cycles are positive. *)

(** {1 Files and failures} *)

val read_input : string -> (string, string) result
(** The contents of the file at [path], or why it cannot be read,
    naming the path: ["<path>: is a directory"],
    ["<path>: No such file or directory"], ... *)

val exits : doc:string -> Cmd.Exit.info list
(** The exit statuses a command documents in its [--help]: 1 with [doc]
    (when the command fails at run time), then Cmdliner's defaults (0,
    123, 124, 125).  Every binary declares its statuses through this. *)

val runtime_error : prog:string -> string -> 'a
(** [runtime_error ~prog msg] prints the one line [<prog>: <msg>] on
    stderr and exits 1: a runtime failure, not a usage error (124).  A
    file that does not read, compile or write is one; [msg] then names
    the file first, ["<file>: <reason>"], the form of a {!read_input}
    error and of the [Sys_error] that opening a file raises. *)
