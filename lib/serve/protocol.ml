module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Tsdb = Levioso_telemetry.Tsdb
module Config = Levioso_uarch.Config
module Sampler = Levioso_uarch.Sampler

let version = 1

let frame_tag = Printf.sprintf "levioso-serve/v%d" version

type cell = {
  config : Config.t;
  workload : string;
  policy : string;
  audit : bool;
  sample : Sampler.spec option;
}

type request =
  | List
  | Ping
  | Stats
  | Shutdown
  | Prune of int
  | Submit of {
      id : string;
      cache : bool;
      trace : string option;
      cells : cell list;
    }
  | History of { since : float option; until : float option; last : int }

type done_stats = {
  simulated : int;
  cached : int;
  failed : int;
  wall_s : float;
}

type response =
  | Hello of { proto : int; pool : int; cache : bool }
  | Listing of { workloads : (string * string) list; policies : string list }
  | Ack of { id : string; cells : int }
  | Result of {
      id : string;
      index : int;
      source : string;
      wall_s : float;
      summary : Json.t;
      error : string option;
    }
  | Done of { id : string; stats : done_stats }
  | Pruned of int
  | Stats_snapshot of Json.t
  | History_data of Json.t
      (** schema-tagged ["levioso-history"] document with a [records]
          list of tsdb sample/alert objects *)
  | Pong
  | Error of string
  | Bye

(* --- encoding --------------------------------------------------------- *)

let frame fields = Json.Obj (("frame", Json.String frame_tag) :: fields)

let cell_to_json c =
  Json.Obj
    [
      ("workload", Json.String c.workload);
      ("policy", Json.String c.policy);
      ("audit", Json.Bool c.audit);
      ( "sample",
        Json.String
          (match c.sample with
          | None -> "off"
          | Some sp -> Sampler.spec_to_string sp) );
      ("config", Config.to_json c.config);
    ]

let request_to_json = function
  | List -> frame [ ("type", Json.String "list") ]
  | Ping -> frame [ ("type", Json.String "ping") ]
  | Stats -> frame [ ("type", Json.String "stats") ]
  | Shutdown -> frame [ ("type", Json.String "shutdown") ]
  | Prune days ->
    frame [ ("type", Json.String "prune"); ("days", Json.Int days) ]
  | Submit { id; cache; trace; cells } ->
    frame
      ([ ("type", Json.String "submit"); ("id", Json.String id) ]
      @ (match trace with
        | Some tr -> [ ("trace", Json.String tr) ]
        | None -> [])
      @ [
          ("cache", Json.Bool cache);
          ("cells", Json.List (List.map cell_to_json cells));
        ])
  | History { since; until; last } ->
    frame
      ([ ("type", Json.String "history") ]
      @ (match since with
        | Some s -> [ ("since", Json.float s) ]
        | None -> [])
      @ (match until with
        | Some u -> [ ("until", Json.float u) ]
        | None -> [])
      @ [ ("last", Json.Int last) ])

let response_to_json = function
  | Hello { proto; pool; cache } ->
    frame
      [
        ("type", Json.String "hello");
        ("proto", Json.Int proto);
        ("pool", Json.Int pool);
        ("cache", Json.Bool cache);
      ]
  | Listing { workloads; policies } ->
    frame
      [
        ("type", Json.String "listing");
        ( "workloads",
          Json.List
            (List.map
               (fun (name, description) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("description", Json.String description);
                   ])
               workloads) );
        ("policies", Json.List (List.map (fun p -> Json.String p) policies));
      ]
  | Ack { id; cells } ->
    frame
      [
        ("type", Json.String "ack");
        ("id", Json.String id);
        ("cells", Json.Int cells);
      ]
  | Result { id; index; source; wall_s; summary; error } ->
    frame
      ([
         ("type", Json.String "result");
         ("id", Json.String id);
         ("index", Json.Int index);
         ("source", Json.String source);
       ]
      @ (match error with
        | Some msg -> [ ("error", Json.String msg) ]
        | None -> [])
      @ [ ("wall_s", Json.float wall_s); ("summary", summary) ])
  | Done { id; stats } ->
    frame
      [
        ("type", Json.String "done");
        ("id", Json.String id);
        ("simulated", Json.Int stats.simulated);
        ("cached", Json.Int stats.cached);
        ("failed", Json.Int stats.failed);
        ("wall_s", Json.float stats.wall_s);
      ]
  | Pruned removed ->
    frame [ ("type", Json.String "pruned"); ("removed", Json.Int removed) ]
  | Stats_snapshot j -> frame [ ("type", Json.String "stats"); ("snapshot", j) ]
  | History_data j -> frame [ ("type", Json.String "history"); ("data", j) ]
  | Pong -> frame [ ("type", Json.String "pong") ]
  | Error msg ->
    frame [ ("type", Json.String "error"); ("message", Json.String msg) ]
  | Bye -> frame [ ("type", Json.String "bye") ]

(* --- decoding --------------------------------------------------------- *)

let ( let* ) = Result.bind

let check_frame j =
  match Json.member "frame" j with
  | Some (Json.String tag) when tag = frame_tag -> (
    match Json.member "type" j with
    | Some (Json.String ty) -> Ok ty
    | Some _ | None -> Error "frame has no \"type\" field")
  | Some (Json.String tag) ->
    Error
      (Printf.sprintf "protocol mismatch: got %S, this side speaks %S" tag
         frame_tag)
  | Some _ | None -> Error "not a levioso-serve frame (missing \"frame\" tag)"

let string_field j name =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | Some _ | None ->
    Error (Printf.sprintf "frame field %S is missing or not a string" name)

let int_field j name =
  match Json.member name j with
  | Some (Json.Int n) -> Ok n
  | Some _ | None ->
    Error (Printf.sprintf "frame field %S is missing or not an integer" name)

let float_field j name =
  match Json.member name j with
  | Some (Json.Int n) -> Ok (float_of_int n)
  | Some (Json.Float f) -> Ok f
  | Some _ | None ->
    Error (Printf.sprintf "frame field %S is missing or not a number" name)

let bool_field j name =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | Some _ | None ->
    Error (Printf.sprintf "frame field %S is missing or not a boolean" name)

(* Optional fields added after v1 shipped: absent on frames from older
   peers (both directions keep working), malformed still rejected. *)
let opt_string_field j name =
  match Json.member name j with
  | Some (Json.String s) -> Ok (Some s)
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "frame field %S is not a string" name)

let int_field_default j name ~default =
  match Json.member name j with
  | Some (Json.Int n) -> Ok n
  | None -> Ok default
  | Some _ -> Error (Printf.sprintf "frame field %S is not an integer" name)

let opt_float_field j name =
  match Json.member name j with
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int n) -> Ok (Some (float_of_int n))
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "frame field %S is not a number" name)

let cell_of_json j =
  let* workload = string_field j "workload" in
  let* policy = string_field j "policy" in
  let* audit = bool_field j "audit" in
  let* sample_str = string_field j "sample" in
  let* sample = Sampler.parse sample_str in
  let* config =
    match Json.member "config" j with
    | Some c -> Config.of_json c
    | None -> Error "cell has no \"config\""
  in
  Ok { config; workload; policy; audit; sample }

let request_of_json j =
  let* ty = check_frame j in
  match ty with
  | "list" -> Ok List
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "prune" ->
    let* days = int_field j "days" in
    Ok (Prune days)
  | "submit" ->
    let* id = string_field j "id" in
    let* cache = bool_field j "cache" in
    let* trace = opt_string_field j "trace" in
    let* cells =
      match Json.member "cells" j with
      | Some (Json.List l) ->
        List.fold_left
          (fun acc c ->
            let* acc = acc in
            let* cell = cell_of_json c in
            Ok (cell :: acc))
          (Ok []) l
        |> Result.map List.rev
      | Some _ | None -> Error "submit has no \"cells\" list"
    in
    Ok (Submit { id; cache; trace; cells })
  | "history" ->
    let* since = opt_float_field j "since" in
    let* until = opt_float_field j "until" in
    let* last = int_field_default j "last" ~default:0 in
    Ok (History { since; until; last })
  | ty -> Error (Printf.sprintf "unknown request type %S" ty)

let response_of_json j =
  let* ty = check_frame j in
  match ty with
  | "hello" ->
    let* proto = int_field j "proto" in
    let* pool = int_field j "pool" in
    let* cache = bool_field j "cache" in
    Ok (Hello { proto; pool; cache })
  | "listing" ->
    let* workloads =
      match Json.member "workloads" j with
      | Some (Json.List l) ->
        List.fold_left
          (fun acc w ->
            let* acc = acc in
            let* name = string_field w "name" in
            let* description = string_field w "description" in
            Ok ((name, description) :: acc))
          (Ok []) l
        |> Result.map List.rev
      | Some _ | None -> Error "listing has no \"workloads\""
    in
    let* policies =
      match Json.member "policies" j with
      | Some (Json.List l) ->
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            match p with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error "listing policy is not a string")
          (Ok []) l
        |> Result.map List.rev
      | Some _ | None -> Error "listing has no \"policies\""
    in
    Ok (Listing { workloads; policies })
  | "ack" ->
    let* id = string_field j "id" in
    let* cells = int_field j "cells" in
    Ok (Ack { id; cells })
  | "result" ->
    let* id = string_field j "id" in
    let* index = int_field j "index" in
    let* source = string_field j "source" in
    let* error = opt_string_field j "error" in
    let* wall_s = float_field j "wall_s" in
    let* summary =
      match Json.member "summary" j with
      | Some s -> Ok s
      | None -> Error "result has no \"summary\""
    in
    Ok (Result { id; index; source; wall_s; summary; error })
  | "done" ->
    let* id = string_field j "id" in
    let* simulated = int_field j "simulated" in
    let* cached = int_field j "cached" in
    let* failed = int_field_default j "failed" ~default:0 in
    let* wall_s = float_field j "wall_s" in
    Ok (Done { id; stats = { simulated; cached; failed; wall_s } })
  | "pruned" ->
    let* removed = int_field j "removed" in
    Ok (Pruned removed)
  | "stats" -> (
    match Json.member "snapshot" j with
    | Some s -> Ok (Stats_snapshot s)
    | None -> Error "stats has no \"snapshot\"")
  | "history" -> (
    match Json.member "data" j with
    | Some d -> Ok (History_data d)
    | None -> Error "history has no \"data\"")
  | "pong" -> Ok Pong
  | "error" ->
    let* msg = string_field j "message" in
    Ok (Error msg)
  | "bye" -> Ok Bye
  | ty -> Error (Printf.sprintf "unknown response type %S" ty)

(* --- history documents ------------------------------------------------

   The payload of a [History_data] response, also what `levioso_serve
   history --json` prints: a schema-tagged wrapper around verbatim tsdb
   records, so the same document shape works whether the records came
   over the wire or straight off disk. *)

let history_doc records =
  Schema.tag
    [
      ("kind", Json.String "levioso-history");
      ("count", Json.Int (List.length records));
      ( "records",
        Json.List
          (List.map
             (function
               | Tsdb.Sample s -> Tsdb.sample_to_json s
               | Tsdb.Alert a -> Tsdb.alert_to_json a)
             records) );
    ]

let history_records j =
  let* () = Schema.check ~what:"history document" j in
  match Json.member "records" j with
  | Some (Json.List l) ->
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* record = Tsdb.record_of_json r in
        Ok (record :: acc))
      (Ok []) l
    |> Result.map List.rev
  | Some _ | None -> Error "history document has no \"records\" list"

(* --- framing ----------------------------------------------------------

   One minified JSON object per line.  [Json.to_string ~minify:true]
   never emits a newline, so a line is always exactly one frame.  A
   bounded read stops at [max_bytes] instead of buffering whatever a
   peer sends. *)

let max_frame_bytes = 1 lsl 20

let write_frame oc j =
  output_string oc (Json.to_string ~minify:true j);
  output_char oc '\n';
  flush oc

(* [input_line], refusing a line once it passes [max] bytes. *)
let input_line_at_most ic max =
  let buf = Buffer.create 1024 in
  let rec go () =
    match input_char ic with
    | '\n' -> Ok (Buffer.contents buf)
    | exception End_of_file when Buffer.length buf > 0 ->
      Ok (Buffer.contents buf)
    | _ when Buffer.length buf >= max ->
      Result.Error (Printf.sprintf "frame exceeds %d bytes" max)
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let read_frame ?max_bytes ic =
  let read_line () =
    match max_bytes with
    | None -> Ok (input_line ic)
    | Some max -> input_line_at_most ic max
  in
  match read_line () with
  | exception End_of_file -> Ok None
  | exception Sys_error msg -> Result.Error msg
  | Result.Error _ as too_long -> too_long
  | Ok line -> (
    match Json.of_string line with
    | Ok j -> Ok (Some j)
    | Result.Error msg -> Result.Error ("bad frame: " ^ msg))
