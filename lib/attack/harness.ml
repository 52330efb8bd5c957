module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Cache = Levioso_uarch.Cache
module Registry = Levioso_core.Registry

type verdict =
  | Recovered of int
  | Wrong_guess of int
  | No_signal

let verdict_to_string = function
  | Recovered v -> Printf.sprintf "RECOVERED (%d)" v
  | Wrong_guess v -> Printf.sprintf "wrong guess (%d)" v
  | No_signal -> "no signal"

let leaked = function
  | Recovered _ -> true
  | Wrong_guess _ | No_signal -> false

let simulate ?(config = Config.default) ~policy (gadget : Gadget.t) =
  let pipe =
    Pipeline.create ~mem_init:gadget.Gadget.mem_init config
      ~policy:(Registry.find_exn policy) gadget.Gadget.program
  in
  Pipeline.run pipe;
  pipe

let judge (gadget : Gadget.t) hot_lines =
  match hot_lines with
  | [ v ] when v = gadget.Gadget.secret -> Recovered v
  | [ v ] -> Wrong_guess v
  | [] | _ :: _ -> No_signal

let run ?config ~policy gadget =
  let pipe = simulate ?config ~policy gadget in
  let h = Pipeline.hierarchy pipe in
  let hot = ref [] in
  for v = Gadget.probe_values - 1 downto 0 do
    if Cache.Hierarchy.probe h (Gadget.probe_line_addr v) <> Cache.Hierarchy.Memory
    then hot := v :: !hot
  done;
  judge gadget !hot

let run_timed ?config ~policy gadget =
  let pipe = simulate ?config ~policy gadget in
  let mem = Pipeline.mem pipe in
  let times =
    Array.init Gadget.probe_values (fun v -> mem.(Gadget.timing_results_base + v))
  in
  (* Hot lines are distinguishably faster than the slowest (cold) probes:
     use a threshold halfway between the extremes. *)
  let slowest = Array.fold_left max 0 times in
  let fastest = Array.fold_left min max_int times in
  if slowest - fastest < 20 then judge gadget []
  else begin
    let threshold = (slowest + fastest) / 2 in
    let hot = ref [] in
    for v = Gadget.probe_values - 1 downto 0 do
      if times.(v) < threshold then hot := v :: !hot
    done;
    judge gadget !hot
  end
