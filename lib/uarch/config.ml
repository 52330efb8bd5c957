type predictor_kind =
  | Always_taken
  | Bimodal
  | Gshare
  | Tage

type cache_geometry = {
  sets : int;
  ways : int;
  line_words : int;
  hit_latency : int;
}

type t = {
  rob_size : int;
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  alu_latency : int;
  mul_latency : int;
  div_latency : int;
  branch_exec_latency : int;
  redirect_penalty : int;
  forward_latency : int;
  l1 : cache_geometry;
  l2 : cache_geometry;
  memory_latency : int;
  mshrs : int;
  next_line_prefetch : bool;
  mem_words : int;
  predictor : predictor_kind;
  predictor_bits : int;
  depset_budget : int;
}

let default =
  {
    rob_size = 96;
    fetch_width = 4;
    issue_width = 4;
    commit_width = 4;
    alu_latency = 1;
    mul_latency = 3;
    div_latency = 12;
    branch_exec_latency = 1;
    redirect_penalty = 6;
    forward_latency = 1;
    l1 = { sets = 128; ways = 4; line_words = 8; hit_latency = 3 };
    l2 = { sets = 1024; ways = 8; line_words = 8; hit_latency = 14 };
    memory_latency = 60;
    mshrs = 16;
    next_line_prefetch = false;
    mem_words = 1 lsl 20;
    predictor = Gshare;
    predictor_bits = 12;
    depset_budget = 8;
  }

let predictor_kind_to_string = function
  | Always_taken -> "always-taken"
  | Bimodal -> "bimodal"
  | Gshare -> "gshare"
  | Tage -> "tage"

let to_rows t =
  let geometry g =
    Printf.sprintf "%d sets x %d ways x %d words, %d-cycle hit" g.sets g.ways
      g.line_words g.hit_latency
  in
  [
    ("ROB entries", string_of_int t.rob_size);
    ( "Pipeline widths (F/I/C)",
      Printf.sprintf "%d / %d / %d" t.fetch_width t.issue_width t.commit_width );
    ( "Latencies (alu/mul/div/br)",
      Printf.sprintf "%d / %d / %d / %d" t.alu_latency t.mul_latency
        t.div_latency t.branch_exec_latency );
    ("Redirect penalty", string_of_int t.redirect_penalty);
    ("L1 data cache", geometry t.l1);
    ("L2 cache", geometry t.l2);
    ("Memory latency", string_of_int t.memory_latency);
    ("MSHRs", string_of_int t.mshrs);
    ("Next-line prefetch", string_of_bool t.next_line_prefetch);
    ("Memory size (words)", string_of_int t.mem_words);
    ( "Branch predictor",
      Printf.sprintf "%s (%d-bit index)"
        (predictor_kind_to_string t.predictor)
        t.predictor_bits );
    ("Dependency-set budget", string_of_int t.depset_budget);
  ]

let predictor_kind_of_string = function
  | "always-taken" -> Ok Always_taken
  | "bimodal" -> Ok Bimodal
  | "gshare" -> Ok Gshare
  | "tage" -> Ok Tage
  | s -> Error (Printf.sprintf "unknown predictor kind %S" s)

(* The wire codec for the simulation service: a round-tripped config is
   structurally equal to the original, so its [Run_cache.config_key]
   (a digest of the marshalled record) matches too — remote submissions
   hit the same cache entries a local run would. *)

module Json = Levioso_telemetry.Json

let geometry_to_json g =
  Json.Obj
    [
      ("sets", Json.Int g.sets);
      ("ways", Json.Int g.ways);
      ("line_words", Json.Int g.line_words);
      ("hit_latency", Json.Int g.hit_latency);
    ]

let to_json t =
  Json.Obj
    [
      ("rob_size", Json.Int t.rob_size);
      ("fetch_width", Json.Int t.fetch_width);
      ("issue_width", Json.Int t.issue_width);
      ("commit_width", Json.Int t.commit_width);
      ("alu_latency", Json.Int t.alu_latency);
      ("mul_latency", Json.Int t.mul_latency);
      ("div_latency", Json.Int t.div_latency);
      ("branch_exec_latency", Json.Int t.branch_exec_latency);
      ("redirect_penalty", Json.Int t.redirect_penalty);
      ("forward_latency", Json.Int t.forward_latency);
      ("l1", geometry_to_json t.l1);
      ("l2", geometry_to_json t.l2);
      ("memory_latency", Json.Int t.memory_latency);
      ("mshrs", Json.Int t.mshrs);
      ("next_line_prefetch", Json.Bool t.next_line_prefetch);
      ("mem_words", Json.Int t.mem_words);
      ("predictor", Json.String (predictor_kind_to_string t.predictor));
      ("predictor_bits", Json.Int t.predictor_bits);
      ("depset_budget", Json.Int t.depset_budget);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let int_field obj name =
    match Json.member name obj with
    | Some (Json.Int n) -> Ok n
    | Some _ -> Error (Printf.sprintf "config field %S is not an integer" name)
    | None -> Error (Printf.sprintf "config field %S is missing" name)
  in
  let bool_field obj name =
    match Json.member name obj with
    | Some (Json.Bool b) -> Ok b
    | Some _ | None ->
      Error (Printf.sprintf "config field %S is missing or not a boolean" name)
  in
  let geometry_field obj name =
    match Json.member name obj with
    | Some (Json.Obj _ as g) ->
      let* sets = int_field g "sets" in
      let* ways = int_field g "ways" in
      let* line_words = int_field g "line_words" in
      let* hit_latency = int_field g "hit_latency" in
      Ok { sets; ways; line_words; hit_latency }
    | Some _ | None ->
      Error (Printf.sprintf "config field %S is missing or not an object" name)
  in
  match j with
  | Json.Obj _ ->
    let* rob_size = int_field j "rob_size" in
    let* fetch_width = int_field j "fetch_width" in
    let* issue_width = int_field j "issue_width" in
    let* commit_width = int_field j "commit_width" in
    let* alu_latency = int_field j "alu_latency" in
    let* mul_latency = int_field j "mul_latency" in
    let* div_latency = int_field j "div_latency" in
    let* branch_exec_latency = int_field j "branch_exec_latency" in
    let* redirect_penalty = int_field j "redirect_penalty" in
    let* forward_latency = int_field j "forward_latency" in
    let* l1 = geometry_field j "l1" in
    let* l2 = geometry_field j "l2" in
    let* memory_latency = int_field j "memory_latency" in
    let* mshrs = int_field j "mshrs" in
    let* next_line_prefetch = bool_field j "next_line_prefetch" in
    let* mem_words = int_field j "mem_words" in
    let* predictor =
      match Json.member "predictor" j with
      | Some (Json.String s) -> predictor_kind_of_string s
      | Some _ | None -> Error "config field \"predictor\" is missing or not a string"
    in
    let* predictor_bits = int_field j "predictor_bits" in
    let* depset_budget = int_field j "depset_budget" in
    Ok
      {
        rob_size;
        fetch_width;
        issue_width;
        commit_width;
        alu_latency;
        mul_latency;
        div_latency;
        branch_exec_latency;
        redirect_penalty;
        forward_latency;
        l1;
        l2;
        memory_latency;
        mshrs;
        next_line_prefetch;
        mem_words;
        predictor;
        predictor_bits;
        depset_budget;
      }
  | _ -> Error "config is not a JSON object"

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The upper bounds.  Each admits every value a sweep, test or doc uses,
   and together they cap what [Pipeline.create] allocates (see
   config.mli): the wake rows are quadratic in the window and the
   completion wheel is sized by the largest latency. *)
let largest =
  let g = { sets = 1 lsl 14; ways = 32; line_words = 64; hit_latency = 1000 } in
  {
    rob_size = 2048;
    fetch_width = 32;
    issue_width = 32;
    commit_width = 32;
    alu_latency = 1000;
    mul_latency = 1000;
    div_latency = 1000;
    branch_exec_latency = 1000;
    redirect_penalty = 1000;
    forward_latency = 1000;
    l1 = g;
    l2 = g;
    memory_latency = 1000;
    mshrs = 256;
    next_line_prefetch = true;
    mem_words = 1 lsl 22;
    predictor = Tage;
    predictor_bits = 16;
    depset_budget = 256;
  }

(* Every field with an upper bound, by name. *)
let bounded t =
  [
    ("rob_size", t.rob_size);
    ("fetch_width", t.fetch_width);
    ("issue_width", t.issue_width);
    ("commit_width", t.commit_width);
    ("alu_latency", t.alu_latency);
    ("mul_latency", t.mul_latency);
    ("div_latency", t.div_latency);
    ("branch_exec_latency", t.branch_exec_latency);
    ("redirect_penalty", t.redirect_penalty);
    ("forward_latency", t.forward_latency);
    ("l1.sets", t.l1.sets);
    ("l1.ways", t.l1.ways);
    ("l1.line_words", t.l1.line_words);
    ("l1.hit_latency", t.l1.hit_latency);
    ("l2.sets", t.l2.sets);
    ("l2.ways", t.l2.ways);
    ("l2.line_words", t.l2.line_words);
    ("l2.hit_latency", t.l2.hit_latency);
    ("memory_latency", t.memory_latency);
    ("mshrs", t.mshrs);
    ("mem_words", t.mem_words);
    ("predictor_bits", t.predictor_bits);
    ("depset_budget", t.depset_budget);
  ]

let limits = bounded largest

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) r f =
    match r with
    | Ok () -> f ()
    | Error _ as e -> e
  in
  let* () = check (t.rob_size > 1) "rob_size must be > 1" in
  let* () =
    check
      (t.fetch_width > 0 && t.issue_width > 0 && t.commit_width > 0)
      "pipeline widths must be positive"
  in
  let* () = check (is_power_of_two t.mem_words) "mem_words must be a power of two" in
  let* () =
    check
      (is_power_of_two t.l1.sets && is_power_of_two t.l1.line_words)
      "l1 geometry must use powers of two"
  in
  let* () =
    check
      (is_power_of_two t.l2.sets && is_power_of_two t.l2.line_words)
      "l2 geometry must use powers of two"
  in
  let* () = check (t.l1.ways > 0 && t.l2.ways > 0) "cache ways must be positive" in
  let* () =
    check (t.l1.line_words = t.l2.line_words) "cache levels must share a line size"
  in
  let* () = check (t.mshrs > 0) "mshrs must be positive" in
  let* () = check (t.depset_budget > 0) "depset_budget must be positive" in
  let* () = check (t.predictor_bits >= 2) "predictor_bits must be >= 2" in
  (* The pipeline's completion calendar schedules every instruction a
     bounded, positive number of cycles ahead; a zero or negative latency
     would let a completion land in the cycle being drained. *)
  let* () =
    check
      (t.alu_latency > 0 && t.mul_latency > 0 && t.div_latency > 0
     && t.branch_exec_latency > 0 && t.forward_latency > 0
     && t.l1.hit_latency > 0 && t.l2.hit_latency > 0 && t.memory_latency > 0)
      "execution and memory latencies must be positive"
  in
  let* () = check (t.redirect_penalty >= 0) "redirect_penalty must be >= 0" in
  match
    List.find_opt
      (fun ((_, v), (_, max)) -> v > max)
      (List.combine (bounded t) limits)
  with
  | Some ((name, v), (_, max)) ->
    Error (Printf.sprintf "%s must be <= %d (got %d)" name max v)
  | None -> Ok ()
