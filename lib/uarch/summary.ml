module Json = Levioso_telemetry.Json
module Stall = Levioso_telemetry.Stall
module Audit = Levioso_telemetry.Audit
module Schema = Levioso_telemetry.Schema

(* The one body both builders share: labels, counters, the cache block
   and the stall block, then the builder's own sections. *)
let summary ?workload ?policy ~top_k stats hierarchy stall extra =
  let label key v =
    match v with
    | Some s -> [ (key, Json.String s) ]
    | None -> []
  in
  Json.Obj
    (Schema.field :: label "workload" workload
    @ label "policy" policy
    @ [
        ("stats", Sim_stats.to_json stats);
        ( "cache",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               (Cache.Hierarchy.stats hierarchy)) );
        ("stalls", Stall.to_json ~top_k stall);
      ]
    @ extra)

let of_pipeline ?workload ?policy ?(top_k = 10) pipe =
  summary ?workload ?policy ~top_k (Pipeline.stats pipe)
    (Pipeline.hierarchy pipe)
    (Pipeline.stall_attribution pipe)
    (match Pipeline.audit pipe with
    | None -> []
    | Some a -> [ ("audit", Audit.to_json ~top_k a) ])

let of_sampled ?workload ?policy ?(top_k = 10) (r : Sampler.result) =
  summary ?workload ?policy ~top_k r.Sampler.stats r.Sampler.hierarchy
    r.Sampler.stall
    [ ("sampled", Sampler.to_json r) ]

let runs summaries = Schema.tag [ ("runs", Json.List summaries) ]

(* The one cycles rule: a sampled run's cycles are the extrapolated
   estimate, not the detailed intervals' sum.  [None] for an exact run. *)
let sampled_estimate =
  Json.(get ~default:None (fun s -> Some (get to_int_exn "estimated_cycles" s)))
    "sampled"

let stats summary =
  Result.bind (Schema.check ~what:"run summary" summary) (fun () ->
      Json.decoded
        (fun j ->
          let block b = Json.ok_exn (Sim_stats.of_json b) in
          let stats = Json.get block "stats" j in
          Option.iter
            (fun n -> stats.Sim_stats.cycles <- n)
            (sampled_estimate j);
          stats)
        summary)

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

let int k j = Json.(get to_int_exn) k j

let audit_of a =
  let cycles k = Json.get (int "cycles") k a in
  let top p =
    ( int "pc" p,
      int "events" p,
      int "necessary_cycles" p,
      int "unnecessary_cycles" p )
  in
  {
    restricted = int "cycles" a;
    necessary = cycles "necessary";
    unnecessary = cycles "unnecessary";
    top_pcs = Json.(get ~default:[] (each top)) "top_pcs" a;
  }

(* [f] over an optional object field, an absent one read as empty *)
let section k f j =
  Json.get ~default:(f (Json.Obj [])) (fun o -> f (Json.obj o)) k j

(* Everything but cycles, which the two layouts keep in different places. *)
let run_with j ~cycles =
  let causes = Json.fields (fun k v -> (k, Json.to_int_exn v)) in
  let stall_pc p = (int "pc" p, int "total" p) in
  let stall_total, by_cause, stall_pcs =
    section "stalls"
      (fun s ->
        ( Json.(get ~default:0 to_int_exn) "total" s,
          Json.get ~default:[] causes "by_cause" s,
          Json.(get ~default:[] (each stall_pc)) "top_pcs" s ))
      j
  in
  {
    workload = Json.(get to_string_exn) "workload" j;
    policy = Json.(get to_string_exn) "policy" j;
    cycles;
    ipc = section "stats" Json.(get ~default:0.0 to_float_exn "ipc") j;
    stall_total;
    by_cause;
    stall_pcs;
    audit = Json.get ~default:None (fun a -> Some (audit_of a)) "audit" j;
  }

let run_of_summary j =
  let cycles =
    match sampled_estimate j with
    | Some n -> n
    | None -> Json.get (int "cycles") "stats" j
  in
  run_with j ~cycles

let run_of_json = Json.decoded run_of_summary

(* A BENCH_matrix.json cell carries its (already estimated) cycles
   directly. *)
let run_of_cell j = run_with j ~cycles:(int "cycles" j)

let read_runs doc =
  let rows key keep run_of =
    let row j = if keep j then Some (run_of j) else None in
    Json.decoded
      (fun doc -> List.filter_map Fun.id (Json.(get (each row)) key doc))
      doc
  in
  Result.bind (Schema.check ~what:"run summary document" doc) (fun () ->
      match (Json.member "runs" doc, Json.member "matrix" doc) with
      | Some (Json.List _), _ -> rows "runs" (fun _ -> true) run_of_summary
      | None, Some (Json.List _) ->
        (* sweep cells reuse (workload, policy) labels under other configs;
           only the default-config cell of each pair is a report row *)
        let default_config cell =
          Json.member "default_config" cell <> Some (Json.Bool false)
        in
        rows "matrix" default_config run_of_cell
      | _ -> Error "neither a \"runs\" document nor a bench trajectory")

(* The -v report: one "key value" row per counter, read from the
   document alone, so the text is the same whoever computed it. *)
let verbose doc =
  let str k = Json.(get to_string_exn) k doc in
  let num j k = string_of_int (int k j) in
  let dec j digits k = Printf.sprintf "%.*f" digits (Json.(get to_float_exn) k j) in
  let counters prefix =
    Json.fields (fun k v -> (prefix ^ k, string_of_int (Json.to_int_exn v)))
  in
  let cell = str "workload" ^ " / " ^ str "policy" in
  let title, head =
    match Json.member "sampled" doc with
    | None -> (cell, [])
    | Some sm ->
      let spec = List.map (num sm) [ "interval"; "warmup"; "period" ] in
      ( cell ^ " (sampled " ^ String.concat ":" spec ^ ")",
        [
          ( "estimated cycles",
            num sm "estimated_cycles" ^ " (+/- " ^ dec sm 2 "error_pct" ^ "%)" );
          ( "instrs in detail",
            num sm "detailed_instrs" ^ " of " ^ num sm "total_instrs" ^ " ("
            ^ num sm "intervals" ^ " intervals)" );
        ] )
  in
  let st = Json.member_exn "stats" doc and stalls = Json.member_exn "stalls" doc in
  let n = num st in
  let audit =
    match Json.member "audit" doc with
    | None -> []
    | Some a ->
      let part k =
        let p = Json.member_exn k a in
        num p "cycles" ^ " (" ^ num p "events" ^ " events)"
      in
      [
        ("audit events", num a "events");
        ("audit restricted cycles", num a "cycles");
        ("audit necessary cycles", part "necessary");
        ("audit unnecessary cycles", part "unnecessary");
        ( "audit unnecessary share",
          Printf.sprintf "%.1f%%" (100.0 *. Json.(get to_float_exn) "unnecessary_share" a) );
      ]
  in
  let rows =
    head
    @ [
        ("cycles", n "cycles");
        ("committed", n "committed");
        ("IPC", dec st 3 "ipc");
        ("loads / stores", n "committed_loads" ^ " / " ^ n "committed_stores");
        ("branches", n "committed_branches");
        ("mispredicts (MPKI)", n "mispredicts" ^ " (" ^ dec st 2 "mpki" ^ ")");
        ("fetched / squashed", n "fetched" ^ " / " ^ n "squashed");
        ("policy stall entry-cycles", n "policy_stall_cycles");
        ("transmitter stall entry-cycles", n "transmit_stall_cycles");
        ( "restricted committed (xmit)",
          n "restricted_committed" ^ " (" ^ n "restricted_transmitters" ^ ")" );
        ("wrong-path executed loads", n "wrong_path_executed_loads");
        ("max ROB occupancy", n "max_rob_occupancy");
      ]
    @ Json.get (counters "") "cache" doc
    @ Json.get (counters "stall ") "by_cause" stalls
    @ [ ("stall total", num stalls "total") ]
    @ audit
  in
  String.concat ""
    (Printf.sprintf "== %s ==\n" title
    :: List.map (fun (k, v) -> Printf.sprintf "  %-32s %s\n" k v) rows)

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

let ints = Json.(each to_int_exn)

let leak_node n =
  let str k = Json.(get to_string_exn) k n in
  let count k = List.length (Json.get ~default:[] ints k n) in
  {
    id = int "id" n;
    pc = int "pc" n;
    kind = str "kind";
    disasm = str "disasm";
    sources = count "source_addrs";
    transmits = count "transmit_addrs";
    mispredicted = Json.(get ~default:false to_bool_exn) "mispredicted" n;
    outcome = str "outcome";
  }

let leak_of_doc doc =
  if Json.(get to_string_exn) "kind" doc <> "levioso-flowtrace" then
    invalid_arg "not a levioso-flowtrace document";
  let entries key f = Json.(get (each f)) key doc in
  let edge e = (int "src" e, int "dst" e, Json.(get to_string_exn) "dep" e) in
  {
    nodes = entries "nodes" leak_node;
    edges = entries "edges" edge;
    chains = List.length (entries "chains" ints);
  }

let leak_of_json doc =
  Result.bind (Schema.check ~what:"leak graph" doc) (fun () ->
      Json.decoded leak_of_doc doc)
