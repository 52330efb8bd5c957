(** The one name set every surface agrees on: the full workload roster
    (suite kernels, findable extras like [stream-xl], compiled Lev
    workloads, and the [spectre-v1] gadget pseudo-workload) plus the
    policy registry — backing [levioso_sim --list-workloads/-policies]
    and the wire protocol's [list] request. *)

val workload_names : unit -> string list

val listing : unit -> (string * string) list
(** [(name, description)] of every resolvable workload, in listing
    order. *)

val find_workload : string -> Levioso_workload.Workload.t option

val find_workload_exn : string -> Levioso_workload.Workload.t
(** @raise Invalid_argument on unknown names, listing the known ones. *)

val policies : unit -> string list
(** [Levioso_core.Registry.names]. *)
