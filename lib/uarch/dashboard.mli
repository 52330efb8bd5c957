(** Self-contained HTML dashboard over a continuous-telemetry history
    ({!Levioso_telemetry.Tsdb} samples, as recorded by
    [levioso_serve serve --history-out] and rendered by
    [levioso_report --dashboard DIR]).

    The page is written through {!Levioso_telemetry.Html}, as
    {!Html_report} is, and keeps that module's contract: every float is
    printed with a fixed format, so CI diffs dashboards textually. *)

val render :
  ?title:string ->
  Levioso_telemetry.Tsdb.sample list ->
  (string, string) result
(** Render panels for queue depth, request/error rates, latency
    percentiles, cache hit share and GC heap, plus the newest sample's
    full field table.  [Error] when there are no samples. *)
