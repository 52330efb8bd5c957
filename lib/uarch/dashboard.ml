module Html = Levioso_telemetry.Html
module Tsdb = Levioso_telemetry.Tsdb

let fp = Printf.sprintf

let css =
  "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;\
   color:#222}h1{font-size:1.5em}h2{font-size:1.2em;margin-top:2em;\
   border-bottom:1px solid #ddd;padding-bottom:.2em}table{border-collapse:\
   collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.25em .6em;\
   text-align:right}th{background:#f5f5f5}td:first-child,th:first-child\
   {text-align:left}svg.chart{margin:.5em 0}svg text.label{font-size:11px;\
   fill:#444}svg text.axis{font-size:10px;fill:#777}"
  ^ Html.legend_css
  ^ "p.nodata{color:#777;font-style:italic}"

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

let axes b ~span ~vmax ~fmt =
  let d = string_of_int and axis ?anchor = Html.text b ?anchor "axis" in
  Html.el b "line"
    [ ("x1", d left); ("y1", d (top + plot_h)); ("x2", d (left + plot_w));
      ("y2", d (top + plot_h)); ("stroke", "#ccc") ];
  axis ~anchor:"end" (left - 6) (top + 8) (fmt vmax);
  axis ~anchor:"end" (left - 6) (top + plot_h) "0";
  axis left (top + plot_h + 14) "t+0s";
  axis ~anchor:"end" (left + plot_w) (top + plot_h + 14) (fp "t+%.1fs" span)

let polyline_points ~span ~vmax pts =
  String.concat " "
    (List.map
       (fun (t, v) -> fp "%.1f,%.1f" (x_of ~span t) (y_of ~vmax v))
       pts)

(* One chart panel: a heading, a description, then the series on shared
   axes, or a no-data note.  An [area] panel fills each series and labels
   its last value; a lines panel has a legend instead. *)
let panel b ~title ~desc ~fmt ?(area = false) named_series =
  Html.heading b 2 title;
  Html.para b desc;
  match List.filter (fun (_, _, pts) -> pts <> []) named_series with
  | [] ->
    Html.para b ~cls:"nodata" "No data for this metric in the recorded window."
  | named ->
    let extent f =
      List.fold_left
        (fun acc (_, _, pts) ->
          List.fold_left (fun acc p -> Float.max acc (f p)) acc pts)
        0. named
    in
    let span = extent fst in
    let vmax = match extent snd with m when m > 0. -> m *. 1.05 | _ -> 1. in
    Html.svg b ~width ~height (fun () ->
        axes b ~span ~vmax ~fmt;
        List.iter
          (fun (_, color, pts) ->
            let line = polyline_points ~span ~vmax pts in
            let last_t, last_v = List.nth pts (List.length pts - 1) in
            let base = top + plot_h in
            if area then
              Html.el b "polygon"
                [ ( "points",
                    fp "%.1f,%d %s %.1f,%d"
                      (x_of ~span (fst (List.hd pts)))
                      base line (x_of ~span last_t) base );
                  ("fill", color); ("fill-opacity", "0.25") ];
            Html.el b "polyline"
              [ ("points", line); ("fill", "none"); ("stroke", color);
                ("stroke-width", "1.5") ];
            if area then begin
              let x = x_of ~span last_t +. 4. and y = y_of ~vmax last_v -. 4. in
              Html.el b "text" ~text:(fmt last_v)
                [ ("x", fp "%.1f" (Float.min x (float_of_int (width - 40))));
                  ("y", fp "%.1f" (Float.max y 10.)); ("class", "label") ]
            end)
          named);
    if not area then
      Html.legend b (List.map (fun (name, color, _) -> (color, name)) named)

let area_panel b ~title ~desc ~color ~fmt pts =
  panel b ~area:true ~title ~desc ~fmt [ (title, color, pts) ]

let fmt_count v =
  if Float.abs v >= 1000. then fp "%.3g" v else fp "%g" v

let fmt_ms v = fp "%.2f ms" v
let fmt_rate v = fp "%.2f/s" v
let fmt_share v = fp "%.1f%%" (100. *. v)
let fmt_mwords v = fp "%.2f Mw" v

let render ?(title = "Levioso serve dashboard") samples =
  let samples =
    List.sort (fun (a : Tsdb.sample) b -> compare a.Tsdb.ts b.Tsdb.ts) samples
  in
  match samples with
  | [] -> Error "dashboard: history contains no samples"
  | first :: _ ->
    let t0 = first.Tsdb.ts in
    let last = List.nth samples (List.length samples - 1) in
    let span = last.Tsdb.ts -. t0 in
    let series = series samples ~t0 in
    let scaled k = List.map (fun (t, v) -> (t, k *. v)) in
    Ok
      (Html.page ~title ~css (fun b ->
           Html.para b
             (fp "%d samples over %.1fs" (List.length samples) span);

           area_panel b ~title:"Queue depth" ~color:"#4e79a7" ~fmt:fmt_count
             ~desc:
               "Tasks waiting for a pool worker at each sample — sustained \
                depth means the pool is undersized for the offered load."
             (series "queue_depth");
           area_panel b ~title:"Requests per second" ~color:"#f28e2b"
             ~fmt:fmt_rate
             ~desc:
               "Request rate between consecutive samples (absent until the \
                second sample, and zero while idle)."
             (series "requests_per_s");
           area_panel b ~title:"Error rate" ~color:"#e15759" ~fmt:fmt_rate
             ~desc:
               "Failed cells and rejected frames per second between \
                consecutive samples."
             (series "errors_per_s");
           panel b ~title:"End-to-end latency percentiles" ~fmt:fmt_ms
             ~desc:
               "Sliding-window percentiles of per-cell total latency (queue \
                + execute + serialize), in milliseconds."
             [
               ("p50", "#59a14f", scaled 1000. (series "total_p50_s"));
               ("p95", "#f28e2b", scaled 1000. (series "total_p95_s"));
               ("p99", "#e15759", scaled 1000. (series "total_p99_s"));
             ];
           area_panel b ~title:"Cache hit share" ~color:"#59a14f"
             ~fmt:fmt_share
             ~desc:
               "Share of served cells replayed from the shard store between \
                consecutive samples (of cells actually served in that \
                window)."
             (series "cache_hit_share");
           area_panel b ~title:"GC heap" ~color:"#b07aa1" ~fmt:fmt_mwords
             ~desc:"Major heap size in millions of words."
             (scaled 1e-6 (series "gc_heap_words"));

           Html.heading b 2 "Latest sample";
           Html.para b
             (fp "Every field of the newest sample (t+%.1fs)."
                (last.Tsdb.ts -. t0));
           Html.table b [ "field"; "value" ]
             (List.map
                (fun (k, v) -> [ Html.td k; Html.td (fp "%g" v) ])
                last.Tsdb.fields)))
