module Json = Levioso_telemetry.Json
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
  | Submit of {
      id : string;
      cache : bool;
      trace : string option;
      cells : cell list;
    }

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
  | Stats_snapshot of Json.t
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
  | Stats_snapshot j -> frame [ ("type", Json.String "stats"); ("snapshot", j) ]
  | Pong -> frame [ ("type", Json.String "pong") ]
  | Error msg ->
    frame [ ("type", Json.String "error"); ("message", Json.String msg) ]
  | Bye -> frame [ ("type", Json.String "bye") ]

(* --- decoding --------------------------------------------------------- *)

let str k j = Json.(get to_string_exn) k j
let int k j = Json.(get to_int_exn) k j
let bool k j = Json.(get to_bool_exn) k j
let num k j = Json.(get to_float_exn) k j

(* The optional fields ([trace], [error], [failed]) were added after v1 shipped: absent on frames from older peers
   (both directions keep working), malformed still rejected. *)
let opt conv k j = Json.get ~default:None (fun v -> Some (conv v)) k j

let frame_type j =
  let tag = str "frame" j in
  if tag <> frame_tag then
    invalid_arg
      (Printf.sprintf "protocol mismatch: got %S, this side speaks %S" tag
         frame_tag);
  str "type" j

let cell_of j =
  let sample v = Json.(ok_exn (Sampler.parse (to_string_exn v))) in
  {
    workload = str "workload" j;
    policy = str "policy" j;
    audit = bool "audit" j;
    sample = Json.get sample "sample" j;
    config = Json.get (fun c -> Json.ok_exn (Config.of_json c)) "config" j;
  }

let cell_of_json = Json.decoded cell_of

let request_of_json =
  Json.decoded (fun j ->
      match frame_type j with
      | "list" -> List
      | "ping" -> Ping
      | "stats" -> Stats
      | "shutdown" -> Shutdown
      | "submit" ->
        Submit
          {
            id = str "id" j;
            cache = bool "cache" j;
            trace = opt Json.to_string_exn "trace" j;
            cells = Json.(get (each cell_of)) "cells" j;
          }
      | ty -> invalid_arg (Printf.sprintf "unknown request type %S" ty))

let response_of_json =
  Json.decoded (fun j ->
      match frame_type j with
      | "hello" ->
        Hello
          { proto = int "proto" j; pool = int "pool" j; cache = bool "cache" j }
      | "listing" ->
        let workload w = (str "name" w, str "description" w) in
        Listing
          {
            workloads = Json.(get (each workload)) "workloads" j;
            policies = Json.(get (each to_string_exn)) "policies" j;
          }
      | "ack" -> Ack { id = str "id" j; cells = int "cells" j }
      | "result" ->
        Result
          {
            id = str "id" j;
            index = int "index" j;
            source = str "source" j;
            error = opt Json.to_string_exn "error" j;
            wall_s = num "wall_s" j;
            summary = Json.get Fun.id "summary" j;
          }
      | "done" ->
        let stats =
          {
            simulated = int "simulated" j;
            cached = int "cached" j;
            failed = Json.(get ~default:0 to_int_exn) "failed" j;
            wall_s = num "wall_s" j;
          }
        in
        Done { id = str "id" j; stats }
      | "stats" -> Stats_snapshot (Json.get Fun.id "snapshot" j)
      | "pong" -> Pong
      | "error" -> Error (str "message" j)
      | "bye" -> Bye
      | ty -> invalid_arg (Printf.sprintf "unknown response type %S" ty))

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
