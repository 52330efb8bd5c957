(** Bench-run history: append-only per-cell cycle records and regression
    comparison.

    A history file is schema-tagged JSON
    [{"schema_version": …, "entries": [{"label": …, "cells": […]}]}];
    each entry is one bench run reduced to its (workload, policy,
    cycles) cells.  The simulator is deterministic, so cycle counts are
    comparable across machines and an entry checked into the repo works
    as a CI baseline. *)

type cell = {
  workload : string;
  policy : string;
  cycles : int;
  alloc_mwords : float option;
      (** host words allocated over the cell (minor + major - promoted),
          in millions — present when the producing run carried a [host]
          self-profiling section.  Near-deterministic for a
          deterministic simulation, hence usable as a regression
          metric. *)
}

type entry = { label : string; cells : cell list }

val of_matrix :
  label:string -> Levioso_telemetry.Json.t -> (entry, string) result
(** Reduce a {!Summary.runs} document or a [BENCH_matrix.json]
    trajectory to an entry, through {!Summary.read_runs}: a sampled
    run's cycles are its estimate, a trajectory keeps its default-config
    cells only, and a run's [host] section, when present, is folded
    into [alloc_mwords].  [Error] on anything {!Summary.read_runs}
    rejects — a malformed [host] section included, so an allocation
    gate never passes with nothing checked. *)

val load : string -> (entry list, string) result
(** Read a history file.  Also accepts a bare matrix JSON file or a
    [BENCH_matrix.json] trajectory artifact (one entry labelled
    ["matrix"]) so [--compare] can take any of the three forms. *)

val save : string -> entry list -> unit
(** Write (overwrite) a history file. *)

val append : path:string -> entry -> (int, string) result
(** Append to [path], creating it if missing; returns the new entry
    count.  [Error] if the existing file is unreadable. *)

type regression = {
  r_workload : string;
  r_policy : string;
  r_metric : string;  (** ["cycles"] or ["alloc_mwords"] *)
  r_old : float;
  r_new : float;
  pct : float;  (** 100 * (new - old) / old; positive = worse *)
}

val compare_latest :
  tolerance:float ->
  ?alloc_tolerance:float ->
  old_:entry list ->
  new_:entry list ->
  unit ->
  (regression list, string) result
(** Compare the last entry of each history: every cell present in both
    whose cycle count grew by more than [tolerance] percent — or whose
    host allocation grew by more than [alloc_tolerance] percent
    (defaults to [tolerance]; only checked when both sides recorded
    [alloc_mwords]) — is a regression.  Cells present in only one side
    are ignored (matrix shape may evolve).  [Error] when either history
    is empty or no cell overlaps. *)

val regression_to_string : regression -> string
