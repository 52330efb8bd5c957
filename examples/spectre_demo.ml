(* Spectre end-to-end, entirely inside the simulated machine: the attack
   program trains the branch predictor, flushes the guard, steers a
   wrong-path transmit, then times every probe line with rdcycle and writes
   the measurements to memory.  The harness only reads the verdict.

   Run with:  dune exec examples/spectre_demo.exe *)

module Gadget = Levioso_attack.Gadget
module Harness = Levioso_attack.Harness
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Registry = Levioso_core.Registry
module Report = Levioso_util.Report

let secret = 42

(* Show the raw flush+reload histogram for one run, the way attack papers
   plot it: one latency per candidate secret value. *)
let show_histogram policy =
  let gadget = Gadget.bounds_check_bypass ~timing:true ~secret () in
  let pipe =
    Pipeline.create ~mem_init:gadget.Gadget.mem_init Config.default
      ~policy:(Registry.find_exn policy) gadget.Gadget.program
  in
  Pipeline.run pipe;
  let mem = Pipeline.mem pipe in
  let series =
    List.init 8 (fun k ->
        let v = k * 9 in
        ( (if v = secret then Printf.sprintf "value %2d *" v
           else Printf.sprintf "value %2d" v),
          float_of_int mem.(Gadget.timing_results_base + v) ))
  in
  (* include the secret's slot explicitly *)
  let series =
    series @ [ (Printf.sprintf "value %2d *" secret,
                float_of_int mem.(Gadget.timing_results_base + secret)) ]
  in
  print_endline
    (Report.bar_chart
       ~title:(Printf.sprintf "reload latency under %s (* = true secret)" policy)
       () series)

let () =
  Printf.printf "Planting secret byte %d behind the bounds check...\n\n" secret;
  show_histogram "unsafe";
  print_newline ();
  show_histogram "levioso";
  print_endline "\n=== verdicts (in-program flush+reload) ===";
  (* every policy against every gadget; a verdict differs from the
     Registry's threat-model table when the gadget leaks although the
     policy stops its secret class, or the other way round *)
  let differ = ref [] in
  let rows =
    List.map
      (fun policy ->
        policy
        :: List.map
             (fun (label, (make : Gadget.maker)) ->
               let g = make ~timing:true ~secret () in
               let verdict = Harness.run_timed ~policy g in
               if Harness.leaked verdict = Registry.stops policy g.Gadget.secret_class
               then differ := (policy ^ " " ^ label) :: !differ;
               Harness.verdict_to_string verdict)
             Gadget.roster)
      Registry.names
  in
  print_endline
    (Report.table ~header:("defense" :: List.map fst Gadget.roster) ~rows);
  let total = List.length Registry.names * List.length Gadget.roster in
  print_newline ();
  print_endline
    (match List.rev !differ with
    | [] ->
      Printf.sprintf "All %d verdicts match the threat-model table (Registry.stops)."
        total
    | differ ->
      Printf.sprintf
        "%d of %d verdicts differ from the threat-model table (Registry.stops): %s."
        (List.length differ) total (String.concat ", " differ))
