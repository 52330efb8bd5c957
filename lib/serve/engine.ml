module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Run_cache = Levioso_uarch.Run_cache
module Registry = Levioso_core.Registry
module Explain = Levioso_core.Explain
module Json = Levioso_telemetry.Json
module Span = Levioso_telemetry.Span
module Workload = Levioso_workload.Workload

type scope = { spans : Span.t; trace : string; parent : int }

type outcome = {
  summary : Json.t;
  source : string;
  wall_s : float;
  stages : (string * float) list;
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

(* Stage timing is Option-gated on [scope]: with tracing off no clock
   is read and no span allocated, so the untraced path is exactly the
   PR 8 one.  Summaries themselves never depend on [scope] — tracing is
   bit-effect-free on results either way.  [attrs] sees the stage's
   result so a probe can tag itself hit/miss. *)
let staged scope name ?(attrs = fun _ -> []) stages f =
  match scope with
  | None -> f ()
  | Some { spans; trace; parent } ->
    let sp = Span.start spans ~trace ~parent name in
    let t0 = Span.now spans in
    let record more_attrs =
      stages := (name, Span.now spans -. t0) :: !stages;
      Span.finish spans ~attrs:more_attrs sp
    in
    (match f () with
    | v ->
      record (attrs v);
      v
    | exception e ->
      record [ ("error", Printexc.to_string e) ];
      raise e)

let run_cell ?cache ?scope ?observe (c : Protocol.cell) =
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
        staged scope "cache_probe"
          ~attrs:(fun r ->
            [ ("hit", if r = None then "false" else "true") ])
          stages
          (fun () ->
            Run_cache.find store ~config ~workload ~policy:c.Protocol.policy)
      in
      match found with
      | Some summary ->
        let ok =
          staged scope "replay"
            ~attrs:(fun ok ->
              [ ("replayable", if ok then "true" else "false") ])
            stages
            (fun () -> replayable summary)
        in
        if ok then Some summary else None
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
      staged scope "simulate"
        ~attrs:(fun _ ->
          [ ("workload", workload); ("policy", c.Protocol.policy) ])
        stages
        (fun () ->
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
