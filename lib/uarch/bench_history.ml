module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema

type cell = {
  workload : string;
  policy : string;
  cycles : int;
  alloc_mwords : float option;
}

type entry = { label : string; cells : cell list }

let of_matrix ~label j =
  Result.map
    (fun runs ->
      let cell (r : Summary.run) =
        {
          workload = r.workload;
          policy = r.policy;
          cycles = r.cycles;
          alloc_mwords = r.alloc_mwords;
        }
      in
      { label; cells = List.map cell runs })
    (Summary.read_runs j)

let cell_to_json c =
  Json.Obj
    ([
       ("workload", Json.String c.workload);
       ("policy", Json.String c.policy);
       ("cycles", Json.Int c.cycles);
     ]
    @
    match c.alloc_mwords with
    | Some a -> [ ("alloc_mwords", Json.float a) ]
    | None -> [])

let entry_to_json e =
  Json.Obj
    [
      ("label", Json.String e.label);
      ("cells", Json.List (List.map cell_to_json e.cells));
    ]

let cell_of_json j =
  {
    workload = Json.to_string_exn (Json.member_exn "workload" j);
    policy = Json.to_string_exn (Json.member_exn "policy" j);
    cycles = Json.to_int_exn (Json.member_exn "cycles" j);
    alloc_mwords =
      (match Json.member "alloc_mwords" j with
      | Some (Json.Null) | None -> None
      | Some v -> Some (Json.to_float_exn v));
  }

let entry_of_json j =
  {
    label = Json.to_string_exn (Json.member_exn "label" j);
    cells = List.map cell_of_json (Json.to_list_exn (Json.member_exn "cells" j));
  }

let read_file path =
  match open_in_bin path with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  | exception Sys_error msg -> Error msg

let load path =
  match read_file path with
  | Error msg -> Error msg
  | Ok body -> (
    match Json.of_string body with
    | Error msg -> Error (path ^ ": " ^ msg)
    | Ok j -> (
      match Schema.check ~what:path j with
      | Error msg -> Error msg
      | Ok () -> (
        match Json.member "entries" j with
        | Some (Json.List entries) -> (
          match List.map entry_of_json entries with
          | entries -> Ok entries
          | exception Invalid_argument msg -> Error (path ^ ": " ^ msg))
        | Some _ -> Error (path ^ ": \"entries\" is not a list")
        | None -> (
          (* fall back: a bare matrix file (summary runs) or a
             BENCH_matrix.json trajectory artifact *)
          match of_matrix ~label:"matrix" j with
          | Ok e -> Ok [ e ]
          | Error msg -> Error (path ^ ": " ^ msg)))))

let save path entries =
  let j = Schema.tag [ ("entries", Json.List (List.map entry_to_json entries)) ] in
  let oc = open_out_bin path in
  Json.to_channel oc j;
  output_char oc '\n';
  close_out oc

let append ~path entry =
  let existing =
    if Sys.file_exists path then load path else Ok []
  in
  match existing with
  | Error msg -> Error msg
  | Ok entries ->
    let entries = entries @ [ entry ] in
    save path entries;
    Ok (List.length entries)

type regression = {
  r_workload : string;
  r_policy : string;
  r_metric : string;
  r_old : float;
  r_new : float;
  pct : float;
}

let check_metric ~metric ~tolerance ~workload ~policy ~old_v ~new_v =
  if old_v <= 0. then None
  else
    let pct = 100.0 *. (new_v -. old_v) /. old_v in
    if pct > tolerance then
      Some
        {
          r_workload = workload;
          r_policy = policy;
          r_metric = metric;
          r_old = old_v;
          r_new = new_v;
          pct;
        }
    else None

let compare_latest ~tolerance ?alloc_tolerance ~old_ ~new_ () =
  let alloc_tolerance =
    match alloc_tolerance with Some t -> t | None -> tolerance
  in
  match (List.rev old_, List.rev new_) with
  | [], _ -> Error "old history is empty"
  | _, [] -> Error "new history is empty"
  | o :: _, n :: _ ->
    let overlap = ref 0 in
    let regressions =
      List.concat_map
        (fun nc ->
          match
            List.find_opt
              (fun oc -> oc.workload = nc.workload && oc.policy = nc.policy)
              o.cells
          with
          | None -> []
          | Some oc ->
            incr overlap;
            let cycles =
              check_metric ~metric:"cycles" ~tolerance ~workload:nc.workload
                ~policy:nc.policy
                ~old_v:(float_of_int oc.cycles)
                ~new_v:(float_of_int nc.cycles)
            in
            let alloc =
              (* Only comparable when both sides were host-profiled;
                 old baselines without host sections simply opt out. *)
              match (oc.alloc_mwords, nc.alloc_mwords) with
              | Some oa, Some na ->
                check_metric ~metric:"alloc_mwords" ~tolerance:alloc_tolerance
                  ~workload:nc.workload ~policy:nc.policy ~old_v:oa ~new_v:na
              | _ -> None
            in
            List.filter_map Fun.id [ cycles; alloc ])
        n.cells
    in
    if !overlap = 0 then Error "no overlapping cells between histories"
    else Ok regressions

let regression_to_string r =
  let fmt v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3f" v
  in
  Printf.sprintf "%s/%s: %s -> %s %s (%+.1f%%)" r.r_workload r.r_policy
    (fmt r.r_old) (fmt r.r_new) r.r_metric r.pct
