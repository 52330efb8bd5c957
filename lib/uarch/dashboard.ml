module Tsdb = Levioso_telemetry.Tsdb

(* ---------- rendering ---------- *)

let esc = Html_report.esc
let fp = Printf.sprintf

let css =
  "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;\
   color:#222}h1{font-size:1.5em}h2{font-size:1.2em;margin-top:2em;\
   border-bottom:1px solid #ddd;padding-bottom:.2em}table{border-collapse:\
   collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.25em .6em;\
   text-align:right}th{background:#f5f5f5}td:first-child,th:first-child\
   {text-align:left}svg.chart{margin:.5em 0}svg text.label{font-size:11px;\
   fill:#444}svg text.axis{font-size:10px;fill:#777}.legend{font-size:.85em}\
   .swatch{display:inline-block;width:.9em;height:.9em;margin:0 .3em 0 .9em;\
   vertical-align:-.1em}.firing{color:#e15759;font-weight:bold}\
   .resolved{color:#59a14f}p.nodata{color:#777;font-style:italic}"

(* chart geometry shared by every panel *)
let plot_w = 560
let plot_h = 96
let left = 54
let top = 10
let bottom = 20

let width = left + plot_w + 14
let height = top + plot_h + bottom

(* A time series: (seconds-since-first-sample, value) pairs. *)
let series samples ~t0 field =
  List.filter_map
    (fun (s : Tsdb.sample) ->
      Option.map
        (fun v -> (s.Tsdb.ts -. t0, v))
        (List.assoc_opt field s.Tsdb.fields))
    samples

let x_of ~span t =
  float_of_int left
  +. (float_of_int plot_w *. if span > 0. then t /. span else 0.5)

let y_of ~vmax v =
  float_of_int top
  +. (float_of_int plot_h *. (1. -. (if vmax > 0. then v /. vmax else 0.)))

let svg_open b =
  Buffer.add_string b
    (fp "<svg class=\"chart\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n"
       width height width height)

let axes b ~span ~vmax ~fmt =
  Buffer.add_string b
    (fp
       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>\n"
       left (top + plot_h) (left + plot_w) (top + plot_h));
  Buffer.add_string b
    (fp "<text x=\"%d\" y=\"%d\" class=\"axis\" text-anchor=\"end\">%s</text>\n"
       (left - 6) (top + 8) (esc (fmt vmax)));
  Buffer.add_string b
    (fp "<text x=\"%d\" y=\"%d\" class=\"axis\" text-anchor=\"end\">0</text>\n"
       (left - 6) (top + plot_h));
  Buffer.add_string b
    (fp "<text x=\"%d\" y=\"%d\" class=\"axis\">t+0s</text>\n" left
       (top + plot_h + 14));
  Buffer.add_string b
    (fp
       "<text x=\"%d\" y=\"%d\" class=\"axis\" text-anchor=\"end\">t+%.1fs</text>\n"
       (left + plot_w)
       (top + plot_h + 14)
       span)

let polyline_points ~span ~vmax pts =
  String.concat " "
    (List.map
       (fun (t, v) -> fp "%.1f,%.1f" (x_of ~span t) (y_of ~vmax v))
       pts)

(* One filled area chart (gauge/rate panels). *)
let area_panel b ~title ~desc ~color ~fmt pts =
  Buffer.add_string b (fp "<h2>%s</h2>\n" (esc title));
  Buffer.add_string b (fp "<p>%s</p>\n" desc);
  match pts with
  | [] ->
    Buffer.add_string b
      "<p class=\"nodata\">No data for this metric in the recorded \
       window.</p>\n"
  | pts ->
    let span = List.fold_left (fun acc (t, _) -> Float.max acc t) 0. pts in
    let vmax =
      let m = List.fold_left (fun acc (_, v) -> Float.max acc v) 0. pts in
      if m > 0. then m *. 1.05 else 1.
    in
    let last_t, last_v = List.nth pts (List.length pts - 1) in
    svg_open b;
    axes b ~span ~vmax ~fmt;
    let base = top + plot_h in
    let line = polyline_points ~span ~vmax pts in
    Buffer.add_string b
      (fp
         "<polygon points=\"%.1f,%d %s %.1f,%d\" fill=\"%s\" \
          fill-opacity=\"0.25\"/>\n"
         (x_of ~span (fst (List.hd pts)))
         base line (x_of ~span last_t) base color);
    Buffer.add_string b
      (fp
         "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
          stroke-width=\"1.5\"/>\n"
         line color);
    Buffer.add_string b
      (fp "<text x=\"%.1f\" y=\"%.1f\" class=\"label\">%s</text>\n"
         (Float.min (x_of ~span last_t +. 4.) (float_of_int (width - 40)))
         (Float.max (y_of ~vmax last_v -. 4.) 10.)
         (esc (fmt last_v)));
    Buffer.add_string b "</svg>\n"

(* Several lines on shared axes (the latency-percentile panel). *)
let lines_panel b ~title ~desc ~fmt named_series =
  Buffer.add_string b (fp "<h2>%s</h2>\n" (esc title));
  Buffer.add_string b (fp "<p>%s</p>\n" desc);
  let named_series = List.filter (fun (_, _, pts) -> pts <> []) named_series in
  if named_series = [] then
    Buffer.add_string b
      "<p class=\"nodata\">No data for this metric in the recorded \
       window.</p>\n"
  else begin
    let span =
      List.fold_left
        (fun acc (_, _, pts) ->
          List.fold_left (fun acc (t, _) -> Float.max acc t) acc pts)
        0. named_series
    in
    let vmax =
      let m =
        List.fold_left
          (fun acc (_, _, pts) ->
            List.fold_left (fun acc (_, v) -> Float.max acc v) acc pts)
          0. named_series
      in
      if m > 0. then m *. 1.05 else 1.
    in
    svg_open b;
    axes b ~span ~vmax ~fmt;
    List.iter
      (fun (_, color, pts) ->
        Buffer.add_string b
          (fp
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
              stroke-width=\"1.5\"/>\n"
             (polyline_points ~span ~vmax pts)
             color))
      named_series;
    Buffer.add_string b "</svg>\n";
    Buffer.add_string b "<p class=\"legend\">";
    List.iter
      (fun (name, color, _) ->
        Buffer.add_string b
          (fp "<span class=\"swatch\" style=\"background:%s\"></span>%s \n"
             color (esc name)))
      named_series;
    Buffer.add_string b "</p>\n"
  end

let fmt_count v =
  if Float.abs v >= 1000. then fp "%.3g" v else fp "%g" v

let fmt_ms v = fp "%.2f ms" v
let fmt_rate v = fp "%.2f/s" v
let fmt_share v = fp "%.1f%%" (100. *. v)
let fmt_mwords v = fp "%.2f Mw" v

let render ?(title = "Levioso serve dashboard") records =
  let samples =
    List.sort
      (fun (a : Tsdb.sample) b -> compare a.Tsdb.ts b.Tsdb.ts)
      (Tsdb.samples records)
  in
  let alerts =
    List.filter_map (function Tsdb.Alert a -> Some a | Tsdb.Sample _ -> None) records
  in
  match samples with
  | [] -> Error "dashboard: history contains no samples"
  | first :: _ ->
    let t0 = first.Tsdb.ts in
    let last = List.nth samples (List.length samples - 1) in
    let span = last.Tsdb.ts -. t0 in
    let series = series samples ~t0 in
    let scaled k = List.map (fun (t, v) -> (t, k *. v)) in
    let b = Buffer.create 16384 in
    Buffer.add_string b "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
    Buffer.add_string b (fp "<title>%s</title>\n" (esc title));
    Buffer.add_string b (fp "<style>%s</style>\n" css);
    Buffer.add_string b "</head><body>\n";
    Buffer.add_string b (fp "<h1>%s</h1>\n" (esc title));
    Buffer.add_string b
      (fp "<p>%d samples over %.1fs · %d alert transitions</p>\n"
         (List.length samples) span (List.length alerts));

    area_panel b ~title:"Queue depth" ~color:"#4e79a7" ~fmt:fmt_count
      ~desc:
        "Tasks waiting for a pool worker at each sample — sustained depth \
         means the pool is undersized for the offered load."
      (series "queue_depth");
    area_panel b ~title:"Requests per second" ~color:"#f28e2b" ~fmt:fmt_rate
      ~desc:
        "Request rate between consecutive samples (absent until the second \
         sample, and zero while idle)."
      (series "requests_per_s");
    area_panel b ~title:"Error rate" ~color:"#e15759" ~fmt:fmt_rate
      ~desc:
        "Failed cells and rejected frames per second between consecutive \
         samples."
      (series "errors_per_s");
    lines_panel b ~title:"End-to-end latency percentiles" ~fmt:fmt_ms
      ~desc:
        "Sliding-window percentiles of per-cell total latency (queue + \
         execute + serialize), in milliseconds."
      [
        ("p50", "#59a14f", scaled 1000. (series "total_p50_s"));
        ("p95", "#f28e2b", scaled 1000. (series "total_p95_s"));
        ("p99", "#e15759", scaled 1000. (series "total_p99_s"));
      ];
    area_panel b ~title:"Cache hit share" ~color:"#59a14f" ~fmt:fmt_share
      ~desc:
        "Share of served cells replayed from the shard store between \
         consecutive samples (of cells actually served in that window)."
      (series "cache_hit_share");
    area_panel b ~title:"GC heap" ~color:"#b07aa1" ~fmt:fmt_mwords
      ~desc:"Major heap size in millions of words."
      (scaled 1e-6 (series "gc_heap_words"));

    Buffer.add_string b "<h2>Alerts</h2>\n";
    if alerts = [] then
      Buffer.add_string b
        "<p class=\"nodata\">No alert transitions recorded.</p>\n"
    else begin
      Buffer.add_string b
        "<table><tr><th>rule</th><th>at</th><th>state</th></tr>\n";
      List.iter
        (fun (a : Tsdb.alert) ->
          Buffer.add_string b
            (fp
               "<tr><td>%s</td><td>t+%.1fs</td><td class=\"%s\">%s</td></tr>\n"
               (esc a.Tsdb.rule) (a.Tsdb.a_ts -. t0)
               (if a.Tsdb.firing then "firing" else "resolved")
               (if a.Tsdb.firing then "FIRING" else "resolved")))
        alerts;
      Buffer.add_string b "</table>\n"
    end;

    Buffer.add_string b "<h2>Latest sample</h2>\n";
    Buffer.add_string b
      (fp "<p>Every field of the newest sample (t+%.1fs).</p>\n"
         (last.Tsdb.ts -. t0));
    Buffer.add_string b "<table><tr><th>field</th><th>value</th></tr>\n";
    List.iter
      (fun (k, v) ->
        Buffer.add_string b
          (fp "<tr><td>%s</td><td>%g</td></tr>\n" (esc k) v))
      last.Tsdb.fields;
    Buffer.add_string b "</table>\n";

    Buffer.add_string b "</body></html>\n";
    Ok (Buffer.contents b)

let render_exn ?title records =
  match render ?title records with
  | Ok s -> s
  | Error msg -> invalid_arg msg
