(* The constant-time threat model: a victim that never branches on its
   secret and never indexes memory with it — textbook constant-time code —
   still leaks under speculation when *other* mispredicted branches
   transmit its registers on the wrong path.

   This demo sweeps several secret values through every gadget of the
   roster — the sandbox-model v1 gadget, the register secret transmitted
   in the mispredicted region and the register secret transmitted past
   reconvergence — under every defense, and reports how many secrets
   each recovers.  Taint-tracking (sandbox-model) defenses leave the
   register secrets exposed; the closing line checks every count against
   the Registry's threat-model table.

   Run with:  dune exec examples/constant_time_demo.exe *)

module Gadget = Levioso_attack.Gadget
module Harness = Levioso_attack.Harness
module Registry = Levioso_core.Registry
module Report = Levioso_util.Report

let secrets = [ 3; 17; 29; 44; 58 ]

let () =
  print_endline "Victim: secret loaded once, architecturally, into a register.";
  print_endline "Attacker: trains an unrelated guard, flushes it, and lets the";
  print_endline "wrong path transmit the register through the cache.\n";
  (* a cell differs from the threat-model table when a secret leaks
     although the policy stops the gadget's class, or one stays hidden
     although it does not *)
  let differ = ref [] in
  let rows =
    List.map
      (fun policy ->
        policy
        :: List.map
             (fun (label, (make : Gadget.maker)) ->
               let gadgets = List.map (fun secret -> make ~secret ()) secrets in
               let leaked =
                 List.map (fun g -> Harness.leaked (Harness.run ~policy g)) gadgets
               in
               let stops =
                 Registry.stops policy (List.hd gadgets).Gadget.secret_class
               in
               if List.mem stops leaked then
                 differ := (policy ^ " " ^ label) :: !differ;
               Printf.sprintf "%d / %d"
                 (List.length (List.filter Fun.id leaked))
                 (List.length secrets))
             Gadget.roster)
      Registry.names
  in
  print_endline
    (Report.table
       ~header:("defense" :: List.map (fun (label, _) -> label ^ " recovered") Gadget.roster)
       ~rows);
  let total = List.length Registry.names * List.length Gadget.roster in
  print_newline ();
  print_endline
    (match List.rev !differ with
    | [] ->
      Printf.sprintf "All %d counts match the threat-model table (Registry.stops)."
        total
    | differ ->
      Printf.sprintf
        "%d of %d counts differ from the threat-model table (Registry.stops): %s."
        (List.length differ) total (String.concat ", " differ))
