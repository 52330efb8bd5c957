(** Name → defense-policy registry used by the CLI, the benchmark harness
    and the examples, and the threat-model table: which secrets each
    policy stops.  Every security check (the attack matrix, the
    noninterference oracle, bench [table2]) reads its expectations from
    {!stops}, so a new policy declares its row here. *)

(** Where the secret a wrong-path transmitter leaks comes from. *)
type secret_class =
  | Speculative_load  (** read by a wrong-path load (sandbox model) *)
  | Register_in_region
      (** loaded architecturally and held in a register (constant-time
          model); the transmitter sits in the mispredicted region *)
  | Register_past_reconvergence
      (** a register secret the region only copies; the transmitter
          follows the branch's reconvergence point *)

val names : string list
(** unsafe, fence, delay, dom, stt, nda, levioso, levioso-ctrl,
    levioso-static. *)

val paper_schemes : string list
(** The schemes appearing in the headline figure, in plot order:
    ["fence"; "delay"; "dom"; "stt"; "levioso"].  [delay] and [dom] stand
    in for the paper's two prior comprehensive defenses (51% and 43%);
    [stt] is the sandbox-model contrast of the security table. *)

val find : string -> Levioso_uarch.Pipeline.policy_maker option

val find_exn : string -> Levioso_uarch.Pipeline.policy_maker
(** @raise Invalid_argument on unknown names. *)

val stops : string -> secret_class -> bool
(** unsafe stops no class; stt and nda only [Speculative_load];
    levioso-ctrl also [Register_in_region]; fence, delay, dom, levioso
    and levioso-static all three.
    @raise Invalid_argument on unknown names. *)

val stopping : secret_class -> string list
(** The policies that stop a class, in {!names} order. *)
