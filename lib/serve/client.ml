module Json = Levioso_telemetry.Json
module Config = Levioso_uarch.Config
module Run_cache = Levioso_uarch.Run_cache
module Tsdb = Levioso_telemetry.Tsdb

exception Server_error of string

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  pool : int;
  server_cache : bool;
  mutable next_id : int;
}

let fail fmt = Printf.ksprintf (fun m -> raise (Server_error m)) fmt

let read_response c =
  match Protocol.read_frame c.ic with
  | Ok None -> fail "server closed the connection"
  | Error msg -> fail "%s" msg
  | Ok (Some j) -> (
    match Protocol.response_of_json j with
    | Ok (Protocol.Error msg) -> fail "server: %s" msg
    | Ok r -> r
    | Error msg -> fail "%s" msg)

let connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise
       (Server_error
          (Printf.sprintf "%s: cannot connect: %s" socket_path
             (Unix.error_message e))));
  let c =
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      pool = 0;
      server_cache = false;
      next_id = 0;
    }
  in
  match read_response c with
  | Protocol.Hello { proto; pool; cache } ->
    if proto <> Protocol.version then (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail "protocol mismatch: server speaks v%d, client v%d" proto
        Protocol.version);
    { c with pool; server_cache = cache }
  | _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    fail "expected a hello frame"

let close c =
  (try flush c.oc with Sys_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let pool c = c.pool
let server_cache c = c.server_cache

let request c req =
  Protocol.(write_frame c.oc (request_to_json req));
  read_response c

let ping c =
  match request c Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> fail "expected pong"

let list c =
  match request c Protocol.List with
  | Protocol.Listing { workloads; policies } -> (workloads, policies)
  | _ -> fail "expected a listing"

let stats c =
  match request c Protocol.Stats with
  | Protocol.Stats_snapshot j -> j
  | _ -> fail "expected a stats snapshot"

(* A directory the daemon writes under, as its stats frame names it. *)
let daemon_dir c key =
  match Json.member key (stats c) with
  | Some (Json.String dir) -> Some dir
  | Some Json.Null -> None
  | _ -> fail "malformed stats frame: no %s" key

let prune c ~max_age_days =
  match daemon_dir c "cache_dir" with
  | Some dir -> Run_cache.prune (Run_cache.create ~dir ()) ~max_age_days
  | None -> 0

let shutdown c =
  match request c Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> fail "expected bye"

let history ?since ?until ?last c =
  match daemon_dir c "history_dir" with
  | None -> fail "daemon is running without --history-out"
  | Some dir -> (
    match Tsdb.read_dir ?since ?until ?last dir with
    | Ok samples -> samples
    | Error msg -> fail "%s" msg)

type result_cell = {
  source : string;
  wall_s : float;
  summary : Json.t;
  error : string option;
}

type timings = {
  trace : string;
  ack_s : float;
  first_result_s : float option;
  drain_s : float;
  total_s : float;
}

let submit ?(cache = true) ?trace ?on_result ?timings c cells =
  let id = Printf.sprintf "req-%d-%d" (Unix.getpid ()) c.next_id in
  c.next_id <- c.next_id + 1;
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Levioso_telemetry.Span.mint_trace ()
  in
  let n = List.length cells in
  let t0 = Unix.gettimeofday () in
  Protocol.(
    write_frame c.oc
      (request_to_json (Submit { id; cache; trace = Some trace; cells })));
  (match read_response c with
  | Protocol.Ack { id = aid; cells = acells } ->
    if aid <> id || acells <> n then fail "ack for the wrong submission"
  | _ -> fail "expected an ack");
  let t_ack = Unix.gettimeofday () in
  let first_result = ref None in
  let results = Array.make n None in
  let rec drain () =
    match read_response c with
    | Protocol.Result { id = rid; index; source; wall_s; summary; error } ->
      if rid <> id then fail "result for the wrong submission";
      if index < 0 || index >= n then fail "result index %d out of range" index;
      if !first_result = None then
        first_result := Some (Unix.gettimeofday () -. t0);
      let rc = { source; wall_s; summary; error } in
      results.(index) <- Some rc;
      (match on_result with Some f -> f index rc | None -> ());
      drain ()
    | Protocol.Done { id = did; stats } ->
      if did <> id then fail "done for the wrong submission";
      stats
    | _ -> fail "unexpected frame mid-submission"
  in
  let stats = drain () in
  (match timings with
  | Some f ->
    let t_done = Unix.gettimeofday () in
    f
      {
        trace;
        ack_s = t_ack -. t0;
        first_result_s = !first_result;
        drain_s = t_done -. t_ack;
        total_s = t_done -. t0;
      }
  | None -> ());
  let filled =
    Array.map
      (function
        | Some rc -> rc
        | None -> fail "submission finished with missing results")
      results
  in
  (filled, stats)

let max_sweep = Config.largest.rob_size - 63

let sweep ~workload ~policy n =
  if n < 1 || n > max_sweep then
    invalid_arg (Printf.sprintf "Client.sweep: %d cells, want 1..%d" n max_sweep);
  List.init n (fun i ->
      let config = { Config.default with rob_size = 64 + i } in
      { Protocol.config; workload; policy; audit = false; sample = None })
