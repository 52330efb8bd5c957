(* The decoder rejection table: for every document the programs read
   back (wire frames, configs, tsdb records, run summaries, leak graphs),
   one valid document and two mutations of each
   field it holds.  Dropping a required field and giving any field a
   value of the wrong type must both return an [Error] naming that field
   and must never raise; dropping an optional field must decode to the
   field's default. *)

module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Tsdb = Levioso_telemetry.Tsdb
module Config = Levioso_uarch.Config
module Sim_stats = Levioso_uarch.Sim_stats
module Summary = Levioso_uarch.Summary
module Protocol = Levioso_serve.Protocol

(* A path is dot-separated: object keys, and list indices as digits. *)
let is_index k = k <> "" && String.for_all (fun c -> c >= '0' && c <= '9') k

let split path = String.split_on_char '.' path

(* Every path in [j] and the value there, parents first; the paths in
   [stop] are listed but not descended into. *)
let rec paths ~stop prefix j =
  let children =
    match j with
    | Json.Obj kvs -> kvs
    | Json.List vs -> List.mapi (fun i v -> (string_of_int i, v)) vs
    | _ -> []
  in
  List.concat_map
    (fun (k, v) ->
      let p = if prefix = "" then k else prefix ^ "." ^ k in
      p :: (if List.mem p stop then [] else paths ~stop p v))
    children

(* [j] with the value at [path] replaced by [f v], or dropped on [None] *)
let rec update path f j =
  match (path, j) with
  | k :: rest, Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k', v) ->
           if k' <> k then Some (k', v)
           else if rest = [] then Option.map (fun v -> (k', v)) (f v)
           else Some (k', update rest f v))
         kvs)
  | k :: rest, Json.List vs ->
    let i = int_of_string k in
    Json.List
      (List.concat
         (List.mapi
            (fun i' v ->
              if i' <> i then [ v ]
              else if rest = [] then Option.to_list (f v)
              else [ update rest f v ])
            vs))
  | _ -> j

let wrong_type = function
  | Json.String _ -> Json.Int 7
  | _ -> Json.String "x"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The field a path names: its last key, or the list an index is in. *)
let field_of path =
  List.fold_left (fun acc k -> if is_index k then acc else k) "" (split path)

type row =
  | Row : {
      name : string;
      doc : Json.t;
      decode : Json.t -> ('a, string) result;
      optional : (string * 'a) list;
          (** a field that may be absent, and what the document decodes
              to without it *)
      any : string list;
          (** a field whose value may be any JSON value *)
      opaque : string list;
          (** a typed field whose contents are not fields *)
    }
      -> row

(* Every way [r] breaks its contract, one line each. *)
let row_failures (Row r) =
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> failures := (r.name ^ ": " ^ s) :: !failures) fmt
  in
  let decode what j =
    match r.decode j with
    | v -> Some v
    | exception e ->
      fail "%s raised %s" what (Printexc.to_string e);
      None
  in
  (match decode "the valid document" r.doc with
  | Some (Error msg) -> fail "valid document rejected: %s" msg
  | Some (Ok _) | None -> ());
  let rejected what path j =
    match decode what j with
    | Some (Ok _) -> fail "%s accepted" what
    | Some (Error msg) ->
      if not (contains msg (field_of path)) then
        fail "%s: error %S does not name %S" what msg (field_of path)
    | None -> ()
  in
  let stop = r.any @ r.opaque in
  let fields = paths ~stop "" r.doc in
  List.iter
    (fun path ->
      let keys = split path in
      (if not (is_index (List.nth keys (List.length keys - 1))) then
         let what = "without " ^ path in
         let dropped = update keys (fun _ -> None) r.doc in
         match List.assoc_opt path r.optional with
         | Some default -> (
           match decode what dropped with
           | Some v when v <> Ok default ->
             fail "%s does not decode to its default" what
           | Some _ | None -> ())
         | None -> rejected what path dropped);
      if not (List.mem path r.any) then
        rejected ("ill-typed " ^ path) path
          (update keys (fun v -> Some (wrong_type v)) r.doc))
    fields;
  (* the table covers what it says it covers *)
  List.iter
    (fun p ->
      if not (List.mem p fields) then fail "no field %s in the document" p)
    (List.map fst r.optional @ stop);
  List.rev !failures

(* ---------- the documents ---------- *)

let cell =
  {
    Protocol.config = Config.default;
    workload = "stream";
    policy = "levioso";
    audit = false;
    sample = None;
  }

let submit trace =
  Protocol.Submit { id = "b1"; cache = true; trace; cells = [ cell ] }

let request_rows =
  let row name r optional =
    Row
      {
        name = "request_of_json " ^ name;
        doc = Protocol.request_to_json r;
        decode = Protocol.request_of_json;
        optional;
        any = [];
        opaque = [];
      }
  in
  [
    row "ping" Protocol.Ping [];
    row "submit" (submit (Some "tr-1")) [ ("trace", submit None) ];
  ]

let result error =
  Protocol.Result
    {
      id = "b1";
      index = 2;
      source = "sim";
      wall_s = 0.25;
      summary = Json.Null;
      error;
    }

let finished failed =
  Protocol.Done
    { id = "b1"; stats = { simulated = 3; cached = 1; failed; wall_s = 0.5 } }

let response_rows =
  let row ?(any = []) name r optional =
    Row
      {
        name = "response_of_json " ^ name;
        doc = Protocol.response_to_json r;
        decode = Protocol.response_of_json;
        optional;
        any;
        opaque = [];
      }
  in
  [
    row "hello" (Protocol.Hello { proto = 1; pool = 2; cache = true }) [];
    row "listing"
      (Protocol.Listing
         { workloads = [ ("stream", "a stream") ]; policies = [ "unsafe" ] })
      [];
    row "ack" (Protocol.Ack { id = "b1"; cells = 4 }) [];
    row ~any:[ "summary" ] "result" (result (Some "boom"))
      [ ("error", result None) ];
    row "done" (finished 2) [ ("failed", finished 0) ];
    row ~any:[ "snapshot" ] "stats" (Protocol.Stats_snapshot (Json.Obj [])) [];
    row "error" (Protocol.Error "bad") [];
  ]

let config_row =
  Row
    {
      name = "Config.of_json";
      doc = Config.to_json Config.default;
      decode = Config.of_json;
      optional = [];
      any = [];
      opaque = [];
    }

let sample = { Tsdb.ts = 1.5; fields = [ ("queue_depth", 2.) ] }

let tsdb_row =
  Row
    {
      name = "Tsdb.sample_of_json";
      doc = Tsdb.sample_to_json sample;
      decode = Tsdb.sample_of_json;
      optional = [];
      any = [];
      (* a sample keeps its numeric fields and skips the rest *)
      opaque = [ "fields" ];
    }

let sim_stats_row =
  let s = Sim_stats.create () in
  s.Sim_stats.cycles <- 1000;
  s.Sim_stats.committed <- 750;
  s.Sim_stats.mispredicts <- 33;
  let doc =
    match Sim_stats.to_json s with
    | Json.Obj kvs ->
      (* derived from the counters, not read back *)
      Json.Obj (List.filter (fun (k, _) -> k <> "ipc" && k <> "mpki") kvs)
    | j -> j
  in
  Row
    {
      name = "Sim_stats.of_json";
      doc;
      decode = Sim_stats.of_json;
      optional = [];
      any = [];
      opaque = [];
    }

let audit =
  {
    Summary.restricted = 9;
    necessary = 6;
    unnecessary = 3;
    top_pcs = [ (12, 2, 6, 3) ];
  }

let run =
  {
    Summary.workload = "stream";
    policy = "levioso";
    cycles = 100;
    ipc = 0.5;
    stall_total = 7;
    by_cause = [ ("policy_gate", 3); ("rob_full", 4) ];
    stall_pcs = [ (12, 5) ];
    audit = Some audit;
  }

let run_doc =
  Json.of_string_exn
    {|{"workload": "stream", "policy": "levioso",
       "stats": {"cycles": 100, "ipc": 0.5},
       "stalls": {"total": 7, "by_cause": {"policy_gate": 3, "rob_full": 4},
                  "top_pcs": [{"pc": 12, "total": 5}]},
       "audit": {"cycles": 9, "necessary": {"cycles": 6},
                 "unnecessary": {"cycles": 3},
                 "top_pcs": [{"pc": 12, "events": 2, "necessary_cycles": 6,
                              "unnecessary_cycles": 3}]}}|}

let run_rows =
  [
    Row
      {
        name = "Summary.run_of_json exact";
        doc = run_doc;
        decode = Summary.run_of_json;
        optional =
          [
            ("stats.ipc", { run with ipc = 0. });
            ( "stalls",
              { run with stall_total = 0; by_cause = []; stall_pcs = [] } );
            ("stalls.total", { run with stall_total = 0 });
            ("stalls.by_cause", { run with by_cause = [] });
            ( "stalls.by_cause.policy_gate",
              { run with by_cause = [ ("rob_full", 4) ] } );
            ( "stalls.by_cause.rob_full",
              { run with by_cause = [ ("policy_gate", 3) ] } );
            ("stalls.top_pcs", { run with stall_pcs = [] });
            ("audit", { run with audit = None });
            ( "audit.top_pcs",
              { run with audit = Some { audit with top_pcs = [] } } );
          ];
        any = [];
        opaque = [];
      };
    (let bare =
       {
         run with
         cycles = 150;
         ipc = 0.;
         stall_total = 0;
         by_cause = [];
         stall_pcs = [];
         audit = None;
       }
     in
     Row
       {
         name = "Summary.run_of_json sampled";
         doc =
           Json.of_string_exn
             {|{"workload": "stream", "policy": "levioso",
                "stats": {"cycles": 100},
                "sampled": {"estimated_cycles": 150}}|};
         decode = Summary.run_of_json;
         (* a sampled run's cycles are its estimate, and its stats'
            cycles go unread; an exact run's are its stats' *)
         optional =
           [
             ("stats", bare);
             ("stats.cycles", bare);
             ("sampled", { bare with cycles = 100 });
           ];
         any = [ "stats.cycles" ];
         opaque = [];
       });
  ]

let node =
  {
    Summary.id = 0;
    pc = 4;
    kind = "load";
    disasm = "ld r1, 0(r2)";
    sources = 2;
    transmits = 1;
    mispredicted = true;
    outcome = "squashed";
  }

let leak =
  { Summary.nodes = [ node ]; edges = [ (0, 0, "address") ]; chains = 1 }

let leak_row =
  let with_node n = { leak with nodes = [ n ] } in
  Row
    {
      name = "Summary.leak_of_json";
      doc =
        Schema.tag
          [
            ("kind", Json.String "levioso-flowtrace");
            ( "nodes",
              Json.of_string_exn
                {|[{"id": 0, "pc": 4, "kind": "load", "disasm": "ld r1, 0(r2)",
                    "outcome": "squashed", "mispredicted": true,
                    "source_addrs": [100, 101], "transmit_addrs": [7]}]|} );
            ( "edges",
              Json.of_string_exn {|[{"src": 0, "dst": 0, "dep": "address"}]|} );
            ("chains", Json.of_string_exn "[[0]]");
          ];
      decode = Summary.leak_of_json;
      optional =
        [
          ("nodes.0.source_addrs", with_node { node with sources = 0 });
          ("nodes.0.transmit_addrs", with_node { node with transmits = 0 });
          ( "nodes.0.mispredicted",
            with_node { node with mispredicted = false } );
        ];
      any = [];
      opaque = [];
    }

let rows =
  request_rows @ response_rows
  @ [ config_row; tsdb_row; sim_stats_row ] @ run_rows
  @ [ leak_row ]

let test_rejection_table () =
  match List.concat_map row_failures rows with
  | [] -> ()
  | failures -> Alcotest.fail (String.concat "\n" failures)

let suite =
  ( "decode",
    [
      Alcotest.test_case "every field dropped or ill-typed is named" `Quick
        test_rejection_table;
    ] )
