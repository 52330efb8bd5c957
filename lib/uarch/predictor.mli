(** Branch direction predictors.

    Targets are always known statically in this ISA (direct branches only),
    so prediction is direction-only; there is no BTB and no Spectre-v2
    surface.

    History discipline: there is a single (speculative) global history
    register.  {!predict} shifts the predicted direction in; on a squash
    the pipeline rolls it back with {!restore} to the snapshot captured at
    the mispredicted branch and shifts the now-known direction with
    {!force_history}.  {!update} trains at commit using the snapshot
    captured at prediction time, so history-indexed tables train the entry
    that actually made the prediction. *)

type t

type snapshot = private int
(** An immediate, so storing one never needs a write barrier. *)

val create : Config.t -> t

val predict : t -> pc:int -> bool
(** Predicted direction (true = taken) for the branch at [pc]; shifts the
    speculative history. *)

val update : t -> pc:int -> history:snapshot -> taken:bool -> unit
(** Commit-time training. *)

val snapshot : t -> snapshot
(** Capture the speculative history (taken when a branch is decoded,
    before {!predict} shifts it). *)

val restore : t -> snapshot -> unit
(** Roll the speculative history back after a squash. *)

val force_history : t -> taken:bool -> unit
(** Shift a now-known direction into the speculative history (used after
    [restore] to account for the resolved branch itself). *)

val train : t -> pc:int -> taken:bool -> unit
(** Committed-path training for functional warming, in one call: leaves
    the tables and history exactly as {!snapshot}, {!predict},
    {!update} at the snapshot, and on a mispredict {!restore} +
    {!force_history} would — the entry at the current history trains on
    [taken], then [taken] is shifted in. *)

type state
(** Full predictor state — history {e and} learned tables — for
    checkpointed simulation.  {!snapshot} deliberately carries only the
    history (per-branch squash recovery); [state] is the deep copy a
    checkpoint needs. *)

val save_state : t -> state

val restore_state : t -> state -> unit
(** @raise Invalid_argument when the state was saved from a predictor of
    a different kind or size. *)
