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

let stats summary =
  let ( let* ) = Result.bind in
  let* () = Schema.check ~what:"run summary" summary in
  let* stats =
    match Json.member "stats" summary with
    | Some block -> Sim_stats.of_json block
    | None -> Error "run summary has no stats block"
  in
  match Json.member "sampled" summary with
  | None -> Ok stats
  | Some sampled -> (
    (* figures read stats.cycles, which for a sampled run must carry the
       extrapolated estimate rather than the detailed intervals' sum *)
    match Json.member "estimated_cycles" sampled with
    | Some (Json.Int n) ->
      stats.Sim_stats.cycles <- n;
      Ok stats
    | _ -> Error "sampled run summary has no integer estimated_cycles")
