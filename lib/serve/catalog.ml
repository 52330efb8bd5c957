module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Levsuite = Levioso_workload.Levsuite
module Gadget = Levioso_attack.Gadget
module Registry = Levioso_core.Registry

(* The stock Spectre-v1 gadget as a pseudo-workload (the canonical
   --leak-trace victim); lives here so the CLI listing, levioso_sim's
   name resolution and the wire protocol's `list` request all agree on
   one name set.  Built eagerly: every lookup lists it, and lookups run
   on several domains at once, where forcing one lazy value from two
   domains raises [CamlinternalLazy.Undefined]. *)
let spectre_v1 =
  let g = Gadget.bounds_check_bypass ~secret:42 () in
  {
    Workload.name = "spectre-v1";
    description =
      Printf.sprintf "Spectre-v1 bounds-check-bypass gadget (secret at word %d)"
        Gadget.oob_secret_addr;
    program = g.Gadget.program;
    mem_init = g.Gadget.mem_init;
  }

let workloads () =
  Suite.all @ Suite.extras @ Levsuite.all @ [ spectre_v1 ]

let workload_names () =
  List.map (fun (w : Workload.t) -> w.Workload.name) (workloads ())

let listing () =
  List.map
    (fun (w : Workload.t) -> (w.Workload.name, w.Workload.description))
    (workloads ())

let find_workload name =
  List.find_opt (fun (w : Workload.t) -> w.Workload.name = name) (workloads ())

let find_workload_exn name =
  match find_workload name with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %s (known: %s)" name
         (String.concat ", " (workload_names ())))

let policies () = Registry.names
