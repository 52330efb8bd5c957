module Ir = Levioso_ir.Ir
module Config = Levioso_uarch.Config
module Parallel = Levioso_util.Parallel
module Json = Levioso_telemetry.Json

type options = {
  seed : int;
  iters : int;
  time_budget : float option;
  jobs : int;
  oracles : Oracle.t list;
  corpus_dir : string option;
  shrink_budget : int;
  max_failures : int option;
  config : Config.t;
  on_progress : (executed:int -> failures:int -> unit) option;
}

let default_options =
  {
    seed = 1;
    iters = 500;
    time_budget = None;
    jobs = 1;
    oracles = Oracle.all;
    corpus_dir = Some Corpus.default_dir;
    shrink_budget = 2000;
    max_failures = Some 20;
    config = Gen.default_config;
    on_progress = None;
  }

type failure = {
  oracle : string;
  seed : int;
  detail : string;
  original_len : int;
  shrunk_len : int;
  program : Ir.program;
  source : string option;
  path : string option;
  leak : string option;
  leak_path : string option;
}

type report = {
  base_seed : int;
  iterations : int;
  failures : failure list;
  counters : (string * int) list;
}

(* SplitMix64 finalizer over (base, i): O(1) random access to iteration
   seeds, so workers need no shared generator state and any single
   iteration can be replayed in isolation. *)
let iter_seed base i =
  let open Int64 in
  let z =
    add (of_int base) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

let run (o : options) =
  if o.iters = 0 && o.time_budget = None then
    invalid_arg "Campaign.run: iters = 0 requires a time budget";
  if o.oracles = [] then invalid_arg "Campaign.run: no oracles selected";
  let oracles = Array.of_list o.oracles in
  let n = Array.length oracles in
  let tally : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let add name v =
    match Hashtbl.find_opt tally name with
    | Some r -> r := !r + v
    | None -> Hashtbl.add tally name (ref v)
  in
  (* materialize every counter up front so reports list all oracles even
     at zero, and JSON key sets don't depend on which iterations ran *)
  Array.iter
    (fun (o : Oracle.t) ->
      add (o.Oracle.name ^ "/runs") 0;
      add (o.Oracle.name ^ "/failures") 0)
    oracles;
  let failures = ref [] in
  let handle (i, outcome) =
    let oracle = oracles.(i mod n) in
    let seed = iter_seed o.seed i in
    add (oracle.Oracle.name ^ "/runs") 1;
    List.iter
      (fun (key, v) -> add (oracle.Oracle.name ^ "/" ^ key) v)
      outcome.Oracle.extras;
    match outcome.Oracle.verdict with
    | Oracle.Pass -> ()
    | Oracle.Fail f ->
      add (oracle.Oracle.name ^ "/failures") 1;
      let shrunk =
        match f.Oracle.still_fails with
        | Some keep -> Shrink.run ~budget:o.shrink_budget ~keep f.Oracle.program
        | None -> f.Oracle.program
      in
      (* leak provenance is re-derived on the shrunk reproduction, so the
         chain names the instructions a human will actually read *)
      let leak =
        match f.Oracle.leak with
        | Some derive -> derive shrunk
        | None -> None
      in
      let path =
        Option.map
          (fun dir ->
            Corpus.save ~dir
              {
                Corpus.oracle = oracle.Oracle.name;
                seed;
                verdict = "fail";
                detail = f.Oracle.detail;
                source = f.Oracle.source;
                leak;
                program = shrunk;
              })
          o.corpus_dir
      in
      let leak_path =
        match (path, leak) with
        | Some p, Some chain ->
          (* sidecar for CI artifact upload: the chain alone, as text *)
          let lp = Filename.remove_extension p ^ ".leaktrace" in
          let oc = open_out lp in
          output_string oc chain;
          close_out oc;
          Some lp
        | _, _ -> None
      in
      failures :=
        {
          oracle = oracle.Oracle.name;
          seed;
          detail = f.Oracle.detail;
          original_len = Array.length f.Oracle.program;
          shrunk_len = Array.length shrunk;
          program = shrunk;
          source = f.Oracle.source;
          path;
          leak;
          leak_path;
        }
        :: !failures
  in
  let start = Unix.gettimeofday () in
  let out_of_time () =
    match o.time_budget with
    | None -> false
    | Some s -> Unix.gettimeofday () -. start >= s
  in
  let executed = ref 0 in
  Parallel.with_pool ~size:(max 1 o.jobs) (fun pool ->
      (* fixed chunk size, independent of the pool: early-stop decisions
         (time budget, max_failures) land on the same iteration whatever
         -j is, keeping parallel runs bit-identical to serial ones *)
      let chunk = 32 in
      let too_many_failures () =
        match o.max_failures with
        | None -> false
        | Some n -> List.length !failures >= n
      in
      let continue () =
        (o.iters = 0 || !executed < o.iters)
        && (not (out_of_time ()))
        && not (too_many_failures ())
      in
      while continue () do
        let upper =
          if o.iters = 0 then !executed + chunk
          else min o.iters (!executed + chunk)
        in
        let idxs = List.init (upper - !executed) (fun k -> !executed + k) in
        Parallel.map pool
          (fun i ->
            let oracle = oracles.(i mod n) in
            (i, oracle.Oracle.run ~config:o.config ~seed:(iter_seed o.seed i)))
          idxs
        |> List.iter handle;
        executed := upper;
        (* chunk-boundary heartbeat, on the calling domain; purely
           observational, so -j N reports stay bit-identical *)
        match o.on_progress with
        | Some f -> f ~executed:!executed ~failures:(List.length !failures)
        | None -> ()
      done);
  {
    base_seed = o.seed;
    iterations = !executed;
    failures = List.rev !failures;
    counters =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tally []
      |> List.sort compare;
  }

let to_json report =
  Levioso_telemetry.Schema.tag
    [
      ("seed", Json.Int report.base_seed);
      ("iterations", Json.Int report.iterations);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) report.counters)
      );
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("oracle", Json.String f.oracle);
                   ("seed", Json.Int f.seed);
                   ("detail", Json.String f.detail);
                   ("original_len", Json.Int f.original_len);
                   ("shrunk_len", Json.Int f.shrunk_len);
                   ( "path",
                     match f.path with
                     | Some p -> Json.String p
                     | None -> Json.Null );
                   ( "leak",
                     match f.leak with
                     | Some chain -> Json.String chain
                     | None -> Json.Null );
                   ( "leak_path",
                     match f.leak_path with
                     | Some p -> Json.String p
                     | None -> Json.Null );
                 ])
             report.failures) );
    ]

let print oc report =
  Printf.fprintf oc "fuzz campaign: seed %d, %d iterations\n" report.base_seed
    report.iterations;
  List.iter
    (fun (name, value) -> Printf.fprintf oc "  %-42s %d\n" name value)
    report.counters;
  if report.failures = [] then Printf.fprintf oc "  no failures\n"
  else
    List.iter
      (fun f ->
        Printf.fprintf oc
          "  FAIL %s seed %d: %s\n       shrunk %d -> %d instrs%s\n" f.oracle
          f.seed f.detail f.original_len f.shrunk_len
          (match f.path with
          | Some p -> Printf.sprintf " (saved to %s)" p
          | None -> "");
        match f.leak with
        | Some chain ->
          Printf.fprintf oc "       leak chain:\n";
          String.split_on_char '\n' (String.trim chain)
          |> List.iter (fun l -> Printf.fprintf oc "         %s\n" l)
        | None -> ())
      report.failures
