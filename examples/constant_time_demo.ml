(* The constant-time threat model: a victim that never branches on its
   secret and never indexes memory with it — textbook constant-time code —
   still leaks under speculation when *other* mispredicted branches
   transmit its registers on the wrong path.

   This demo sweeps several secret values through the register-secret
   gadget under each defense and reports recovery accuracy, reproducing the
   paper's observation that taint-tracking (sandbox-model) defenses leave
   constant-time code exposed while comprehensive schemes do not.

   Run with:  dune exec examples/constant_time_demo.exe *)

module Gadget = Levioso_attack.Gadget
module Harness = Levioso_attack.Harness
module Report = Levioso_util.Report

let secrets = [ 3; 17; 29; 44; 58 ]

let () =
  print_endline "Victim: secret loaded once, architecturally, into a register.";
  print_endline "Attacker: trains an unrelated guard, flushes it, and lets the";
  print_endline "wrong path transmit the register through the cache.\n";
  let rows =
    List.map
      (fun policy ->
        let verdicts =
          List.map
            (fun secret ->
              Harness.run ~policy (Gadget.register_secret ~secret ()))
            secrets
        in
        let recovered = List.length (List.filter Harness.leaked verdicts) in
        let detail =
          String.concat " "
            (List.map2
               (fun s v -> if Harness.leaked v then string_of_int s else "-")
               secrets verdicts)
        in
        [
          policy;
          Printf.sprintf "%d / %d" recovered (List.length secrets);
          detail;
        ])
      [ "unsafe"; "fence"; "delay"; "stt"; "levioso"; "levioso-ctrl" ]
  in
  print_endline
    (Report.table ~header:[ "defense"; "secrets recovered"; "which" ] ~rows);
  print_endline
    "\nSTT recovers every secret: it only taints speculatively-loaded data,\n\
     and this secret was loaded architecturally.  Comprehensive schemes\n\
     (fence/delay/levioso) gate the wrong-path transmitter itself."
