module Baselines = Levioso_secure.Baselines
module Stt = Levioso_secure.Stt
module Dom = Levioso_secure.Dom
module Nda = Levioso_secure.Nda

type secret_class =
  | Speculative_load
  | Register_in_region
  | Register_past_reconvergence

let every_class =
  [ Speculative_load; Register_in_region; Register_past_reconvergence ]

(* name, maker, the secret classes the policy stops *)
let table =
  [
    ("unsafe", Baselines.unsafe, []);
    ("fence", Baselines.fence, every_class);
    ("delay", Baselines.delay, every_class);
    ("dom", Dom.maker, every_class);
    ("stt", Stt.maker, [ Speculative_load ]);
    ("nda", Nda.maker, [ Speculative_load ]);
    ("levioso", Levioso_policy.maker (), every_class);
    ( "levioso-ctrl",
      Levioso_policy.maker ~track_data:false (),
      [ Speculative_load; Register_in_region ] );
    ("levioso-static", Levioso_static.maker, every_class);
  ]

let names = List.map (fun (name, _, _) -> name) table

let paper_schemes = [ "fence"; "delay"; "dom"; "stt"; "levioso" ]

let row fn name =
  match List.find_opt (fun (n, _, _) -> n = name) table with
  | Some row -> row
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.%s: unknown policy %s (known: %s)" fn name
         (String.concat ", " names))

let find_exn name =
  let _, maker, _ = row "find_exn" name in
  maker

let find name = if List.mem name names then Some (find_exn name) else None

let stops name c =
  let _, _, classes = row "stops" name in
  List.mem c classes

let stopping c = List.filter (fun name -> stops name c) names
