module Json = Levioso_telemetry.Json
module Stall = Levioso_telemetry.Stall
module Audit = Levioso_telemetry.Audit
module Schema = Levioso_telemetry.Schema
module Hostprof = Levioso_telemetry.Hostprof

let of_pipeline ?workload ?policy ?host ?(top_k = 10) pipe =
  let label key v =
    match v with
    | Some s -> [ (key, Json.String s) ]
    | None -> []
  in
  let audit =
    match Pipeline.audit pipe with
    | None -> []
    | Some a -> [ ("audit", Audit.to_json ~top_k a) ]
  in
  let host =
    match host with
    | None -> []
    | Some phases -> [ ("host", Hostprof.phases_to_json phases) ]
  in
  Json.Obj
    (Schema.field :: label "workload" workload
    @ label "policy" policy
    @ [
        ("stats", Sim_stats.to_json (Pipeline.stats pipe));
        ( "cache",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               (Cache.Hierarchy.stats (Pipeline.hierarchy pipe))) );
        ("stalls", Stall.to_json ~top_k (Pipeline.stall_attribution pipe));
      ]
    @ audit @ host)

let of_sampled ?workload ?policy ?host ?(top_k = 10) (r : Sampler.result) =
  let label key v =
    match v with
    | Some s -> [ (key, Json.String s) ]
    | None -> []
  in
  let host =
    match host with
    | None -> []
    | Some phases -> [ ("host", Hostprof.phases_to_json phases) ]
  in
  Json.Obj
    (Schema.field :: label "workload" workload
    @ label "policy" policy
    @ [
        ("stats", Sim_stats.to_json r.Sampler.stats);
        ( "cache",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               (Cache.Hierarchy.stats r.Sampler.hierarchy)) );
        ("stalls", Stall.to_json ~top_k r.Sampler.stall);
        ("sampled", Sampler.to_json r);
      ]
    @ host)

let runs summaries = Schema.tag [ ("runs", Json.List summaries) ]

(* Decoding goes through [Json]'s [_exn] converters; each entry point
   turns their [Invalid_argument] into an [Error]. *)
let decoded f j = try Ok (f j) with Invalid_argument msg -> Error msg
let obj = function Json.Obj _ as o -> o | _ -> invalid_arg "not an object"

(* Field [k] of [j] through [conv], a failure naming the key; [default]
   stands in for an absent field, never for a malformed one. *)
let get ?default conv k j =
  match (Json.member k j, default) with
  | Some v, _ -> (
    try conv v
    with Invalid_argument msg -> invalid_arg (Printf.sprintf "%S: %s" k msg))
  | None, Some d -> d
  | None, None -> invalid_arg (Printf.sprintf "no %S" k)

(* The one cycles rule: a sampled run's cycles are the extrapolated
   estimate, not the detailed intervals' sum.  [None] for an exact run. *)
let sampled_estimate summary =
  Option.map
    (get Json.to_int_exn "estimated_cycles")
    (Json.member "sampled" summary)

let stats summary =
  let ( let* ) = Result.bind in
  let* () = Schema.check ~what:"run summary" summary in
  let* stats =
    match Json.member "stats" summary with
    | Some block -> Sim_stats.of_json block
    | None -> Error "run summary has no stats block"
  in
  let* estimate = decoded sampled_estimate summary in
  Option.iter (fun n -> stats.Sim_stats.cycles <- n) estimate;
  Ok stats

type audit = {
  restricted : int;
  necessary : int;
  unnecessary : int;
  top_pcs : (int * int * int * int) list;
}

type run = {
  workload : string;
  policy : string;
  cycles : int;
  ipc : float;
  stall_total : int;
  by_cause : (string * int) list;
  stall_pcs : (int * int) list;
  audit : audit option;
}

let audit_of a =
  let cycles = get Json.to_int_exn "cycles" in
  let top p =
    let f k = get Json.to_int_exn k p in
    (f "pc", f "events", f "necessary_cycles", f "unnecessary_cycles")
  in
  {
    restricted = cycles a;
    necessary = cycles (get obj "necessary" a);
    unnecessary = cycles (get obj "unnecessary" a);
    top_pcs = List.map top (get ~default:[] Json.to_list_exn "top_pcs" a);
  }

(* Everything but cycles, which the two layouts keep in different places. *)
let run_with j ~cycles =
  let section k o = get ~default:(Json.Obj []) obj k o in
  let stats = section "stats" j and stalls = section "stalls" j in
  let by_cause = section "by_cause" stalls in
  let causes =
    match by_cause with
    | Json.Obj fields ->
      List.map (fun (k, _) -> (k, get Json.to_int_exn k by_cause)) fields
    | _ -> []
  in
  let stall_pc p =
    let f k = get Json.to_int_exn k p in
    (f "pc", f "total")
  in
  {
    workload = get Json.to_string_exn "workload" j;
    policy = get Json.to_string_exn "policy" j;
    cycles;
    ipc = get ~default:0.0 Json.to_float_exn "ipc" stats;
    stall_total = get ~default:0 Json.to_int_exn "total" stalls;
    by_cause = causes;
    stall_pcs =
      List.map stall_pc (get ~default:[] Json.to_list_exn "top_pcs" stalls);
    audit = get ~default:None (fun a -> Some (audit_of a)) "audit" j;
  }

let run_of_summary j =
  let cycles =
    match sampled_estimate j with
    | Some n -> n
    | None -> get Json.to_int_exn "cycles" (get obj "stats" j)
  in
  run_with j ~cycles

let run_of_json = decoded run_of_summary

(* A BENCH_matrix.json cell carries its (already estimated) cycles
   directly. *)
let run_of_cell j = run_with j ~cycles:(get Json.to_int_exn "cycles" j)

(* [f] over a list's entries, a failure naming the entry by its index *)
let each key f entries =
  List.mapi
    (fun i j ->
      try f j
      with Invalid_argument msg ->
        invalid_arg (Printf.sprintf "%s[%d]: %s" key i msg))
    entries

let read_runs doc =
  let decode key keep run_of entries =
    List.filter_map Fun.id
      (each key (fun j -> if keep j then Some (run_of j) else None) entries)
  in
  match Schema.check ~what:"run summary document" doc with
  | Error _ as e -> e
  | Ok () -> (
    match (Json.member "runs" doc, Json.member "matrix" doc) with
    | Some (Json.List runs), _ ->
      decoded (decode "runs" (fun _ -> true) run_of_summary) runs
    | None, Some (Json.List cells) ->
      (* sweep cells reuse (workload, policy) labels under other configs;
         only the default-config cell of each pair is a report row *)
      let default_config cell =
        Json.member "default_config" cell <> Some (Json.Bool false)
      in
      decoded (decode "matrix" default_config run_of_cell) cells
    | _ -> Error "neither a \"runs\" document nor a bench trajectory")

type leak_node = {
  id : int;
  pc : int;
  kind : string;
  disasm : string;
  sources : int;
  transmits : int;
  mispredicted : bool;
  outcome : string;
}

type leak = {
  nodes : leak_node list;
  edges : (int * int * string) list;
  chains : int;
}

let ints v = List.map Json.to_int_exn (Json.to_list_exn v)

let leak_node n =
  let int k = get Json.to_int_exn k n and str k = get Json.to_string_exn k n in
  let count k = List.length (get ~default:[] ints k n) in
  let bool = function Json.Bool b -> b | _ -> invalid_arg "not a bool" in
  {
    id = int "id";
    pc = int "pc";
    kind = str "kind";
    disasm = str "disasm";
    sources = count "source_addrs";
    transmits = count "transmit_addrs";
    mispredicted = get ~default:false bool "mispredicted" n;
    outcome = str "outcome";
  }

let leak_of_doc doc =
  if get Json.to_string_exn "kind" doc <> "levioso-flowtrace" then
    invalid_arg "not a levioso-flowtrace document";
  let entries key f = each key f (get Json.to_list_exn key doc) in
  let edge e =
    let int k = get Json.to_int_exn k e in
    (int "src", int "dst", get Json.to_string_exn "dep" e)
  in
  {
    nodes = entries "nodes" leak_node;
    edges = entries "edges" edge;
    chains = List.length (entries "chains" ints);
  }

let leak_of_json doc =
  Result.bind (Schema.check ~what:"leak graph" doc) (fun () ->
      decoded leak_of_doc doc)
