module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Run_cache = Levioso_uarch.Run_cache
module Registry = Levioso_core.Registry
module Explain = Levioso_core.Explain
module Json = Levioso_telemetry.Json
module Workload = Levioso_workload.Workload

type outcome = {
  summary : Json.t;
  source : string;
  wall_s : float;
  stages : (string * float * float) list;
}

let validate_cell (c : Protocol.cell) =
  let ( let* ) = Result.bind in
  let* () = Config.validate c.Protocol.config in
  let* () =
    match Catalog.find_workload c.Protocol.workload with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown workload %S" c.Protocol.workload)
  in
  let* () =
    match Registry.find c.Protocol.policy with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown policy %S" c.Protocol.policy)
  in
  if c.Protocol.audit && c.Protocol.sample <> None then
    Error "audit cannot be combined with sampling (no per-event stream)"
  else Ok ()

(* The one cacheability rule, for the daemon and bench alike: audited
   summaries carry provenance the key does not cover, and sampled
   summaries are estimates, so neither may replay as (or shadow) an
   exact run. *)
let cacheable (c : Protocol.cell) =
  (not c.Protocol.audit) && c.Protocol.sample = None

(* A stored summary is trusted only if it declares the current artifact
   schema and its stats block decodes. *)
let replayable summary = Result.is_ok (Summary.stats summary)

(* Run one stage and prepend its [(name, start_s, stop_s)] to [stages].
   A raising stage records nothing; the exception fails the cell. *)
let timed stages name f =
  let start_s = Unix.gettimeofday () in
  let v = f () in
  stages := (name, start_s, Unix.gettimeofday ()) :: !stages;
  v

let run_cell ?cache ?observe (c : Protocol.cell) =
  let w = Catalog.find_workload_exn c.Protocol.workload in
  let policy = Registry.find_exn c.Protocol.policy in
  let config = c.Protocol.config in
  let workload = c.Protocol.workload in
  let stages = ref [] in
  let t0 = Unix.gettimeofday () in
  let replay =
    match cache with
    | Some store when cacheable c -> (
      let found =
        timed stages "cache_probe" (fun () ->
            Run_cache.find store ~config ~workload ~policy:c.Protocol.policy)
      in
      match found with
      | Some summary ->
        if timed stages "replay" (fun () -> replayable summary) then
          Some summary
        else None
      | None -> None)
    | _ -> None
  in
  match replay with
  | Some summary ->
    {
      summary;
      source = "cache";
      wall_s = Unix.gettimeofday () -. t0;
      stages = List.rev !stages;
    }
  | None ->
    let summary =
      timed stages "simulate" (fun () ->
          match c.Protocol.sample with
          | Some sp ->
            let r =
              Sampler.run ~mem_init:w.Workload.mem_init sp config ~policy
                w.Workload.program
            in
            Summary.of_sampled ~workload ~policy:c.Protocol.policy r
          | None ->
            let audit =
              if c.Protocol.audit then
                Some (Explain.audit_for w.Workload.program)
              else None
            in
            let pipe =
              Pipeline.create ~mem_init:w.Workload.mem_init ?audit config
                ~policy w.Workload.program
            in
            Option.iter (fun f -> f pipe) observe;
            Pipeline.run pipe;
            Summary.of_pipeline ~workload ~policy:c.Protocol.policy pipe)
    in
    (match cache with
    | Some store when cacheable c ->
      Run_cache.store store ~config ~workload ~policy:c.Protocol.policy summary
    | _ -> ());
    {
      summary;
      source = "sim";
      wall_s = Unix.gettimeofday () -. t0;
      stages = List.rev !stages;
    }
