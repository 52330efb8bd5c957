module Json = Levioso_telemetry.Json

open Summary

(* ---------- leak-graph extraction ---------- *)

let mem_int k j =
  match Json.member k j with
  | Some v -> (try Json.to_int_exn v with Invalid_argument _ -> 0)
  | None -> 0

let mem_str k j =
  match Json.member k j with Some (Json.String s) -> s | _ -> "?"

let first_appearance xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

(* ---------- rendering ---------- *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let policy_palette =
  [|
    "#4e79a7"; "#f28e2b"; "#e15759"; "#76b7b2"; "#59a14f"; "#edc948";
    "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac";
  |]

let cause_color = function
  | "policy_gate" -> "#e15759"
  | "operand_wait" -> "#4e79a7"
  | "lsq_order" -> "#76b7b2"
  | "rob_full" -> "#b07aa1"
  | "exec_port" -> "#f28e2b"
  | _ -> "#bab0ac"

let necessary_color = "#59a14f"
let unnecessary_color = "#e15759"

let fp = Printf.sprintf

(* Grouped bars: one group per workload, one bar per policy; values are
   cycles normalized to the group's baseline. *)
let overhead_chart b runs ~workloads ~policies ~color_of =
  let baseline_cycles w =
    match
      List.find_opt (fun r -> r.workload = w && r.policy = "unsafe") runs
    with
    | Some r when r.cycles > 0 -> Some r.cycles
    | _ ->
      (* fall back to the fastest run of the workload *)
      List.filter (fun r -> r.workload = w && r.cycles > 0) runs
      |> List.fold_left
           (fun acc r ->
             match acc with
             | None -> Some r.cycles
             | Some c -> Some (min c r.cycles))
           None
  in
  let norm r =
    match baseline_cycles r.workload with
    | Some base -> float_of_int r.cycles /. float_of_int base
    | None -> 0.0
  in
  let max_norm =
    List.fold_left (fun acc r -> Float.max acc (norm r)) 1.0 runs
  in
  let bar_w = 30 and gap = 4 and group_gap = 34 in
  let plot_h = 180 and top = 24 and left = 44 in
  let group_w = (List.length policies * (bar_w + gap)) + group_gap in
  let width = left + (List.length workloads * group_w) + 10 in
  let height = plot_h + top + 40 in
  let y v = top + plot_h - int_of_float (float_of_int plot_h *. v /. max_norm) in
  Buffer.add_string b
    (fp "<svg class=\"chart\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n"
       width height width height);
  (* gridline at 1.0 (the baseline) *)
  Buffer.add_string b
    (fp
       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#999\" \
        stroke-dasharray=\"4 3\"/>\n"
       left (y 1.0) (width - 4) (y 1.0));
  Buffer.add_string b
    (fp "<text x=\"%d\" y=\"%d\" class=\"axis\">1.00</text>\n" 8 (y 1.0 + 4));
  List.iteri
    (fun wi w ->
      let gx = left + (wi * group_w) in
      List.iteri
        (fun pi p ->
          match
            List.find_opt (fun r -> r.workload = w && r.policy = p) runs
          with
          | None -> ()
          | Some r ->
            let v = norm r in
            let x = gx + (pi * (bar_w + gap)) in
            let by = y v in
            Buffer.add_string b
              (fp
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                  fill=\"%s\"><title>%s / %s: %d cycles (%.2fx)</title></rect>\n"
                 x by bar_w
                 (top + plot_h - by)
                 (color_of p) (esc w) (esc p) r.cycles v);
            Buffer.add_string b
              (fp
                 "<text x=\"%d\" y=\"%d\" class=\"value\" \
                  text-anchor=\"middle\">%.2f</text>\n"
                 (x + (bar_w / 2)) (by - 4) v))
        policies;
      Buffer.add_string b
        (fp
           "<text x=\"%d\" y=\"%d\" class=\"label\" \
            text-anchor=\"middle\">%s</text>\n"
           (gx + (List.length policies * (bar_w + gap) / 2))
           (top + plot_h + 16) (esc w)))
    workloads;
  Buffer.add_string b "</svg>\n"

(* One stacked bar per run, segments by stall cause. *)
let stall_chart b runs ~color_of:_ =
  let runs = List.filter (fun r -> r.stall_total > 0) runs in
  if runs <> [] then begin
    let max_total =
      List.fold_left (fun acc r -> max acc r.stall_total) 1 runs
    in
    let bar_w = 34 and gap = 14 in
    let plot_h = 180 and top = 24 and left = 10 in
    let width = left + (List.length runs * (bar_w + gap)) + 10 in
    let height = plot_h + top + 56 in
    Buffer.add_string b
      (fp
         "<svg class=\"chart\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d \
          %d\">\n"
         width height width height);
    List.iteri
      (fun i r ->
        let x = left + (i * (bar_w + gap)) in
        let scale n =
          int_of_float
            (float_of_int plot_h *. float_of_int n /. float_of_int max_total)
        in
        let cy = ref (top + plot_h) in
        List.iter
          (fun (cause, n) ->
            if n > 0 then begin
              let h = scale n in
              cy := !cy - h;
              Buffer.add_string b
                (fp
                   "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                    fill=\"%s\"><title>%s / %s — %s: %d</title></rect>\n"
                   x !cy bar_w h (cause_color cause) (esc r.workload)
                   (esc r.policy) (esc cause) n)
            end)
          r.by_cause;
        Buffer.add_string b
          (fp
             "<text x=\"%d\" y=\"%d\" class=\"value\" \
              text-anchor=\"middle\">%d</text>\n"
             (x + (bar_w / 2)) (!cy - 4) r.stall_total);
        Buffer.add_string b
          (fp
             "<text x=\"%d\" y=\"%d\" class=\"label\" \
              text-anchor=\"middle\">%s</text>\n"
             (x + (bar_w / 2)) (top + plot_h + 14) (esc r.workload));
        Buffer.add_string b
          (fp
             "<text x=\"%d\" y=\"%d\" class=\"label\" \
              text-anchor=\"middle\">%s</text>\n"
             (x + (bar_w / 2)) (top + plot_h + 28) (esc r.policy)))
      runs;
    Buffer.add_string b "</svg>\n";
    (* legend *)
    Buffer.add_string b "<p class=\"legend\">";
    List.iter
      (fun cause ->
        Buffer.add_string b
          (fp "<span class=\"swatch\" style=\"background:%s\"></span>%s \n"
             (cause_color cause) (esc cause)))
      (first_appearance (List.concat_map (fun r -> List.map fst r.by_cause) runs));
    Buffer.add_string b "</p>\n"
  end

(* Horizontal 100%-split bar per audited run. *)
let necessity_chart b runs =
  let audited =
    List.filter_map
      (fun r ->
        match r.audit with
        | Some a when a.restricted > 0 -> Some (r, a)
        | _ -> None)
      runs
  in
  if audited = [] then
    Buffer.add_string b
      "<p>No audited restriction cycles in this matrix (run with \
       <code>--audit</code>).</p>\n"
  else begin
    let bar_w = 360 and bar_h = 18 and row_h = 26 and left = 170 in
    let width = left + bar_w + 90 in
    let height = (List.length audited * row_h) + 10 in
    Buffer.add_string b
      (fp
         "<svg class=\"chart\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d \
          %d\">\n"
         width height width height);
    List.iteri
      (fun i (r, a) ->
        let y = 4 + (i * row_h) in
        let share =
          float_of_int a.unnecessary /. float_of_int (max 1 a.restricted)
        in
        let unnec_w = int_of_float (float_of_int bar_w *. share) in
        Buffer.add_string b
          (fp
             "<text x=\"%d\" y=\"%d\" class=\"label\" \
              text-anchor=\"end\">%s / %s</text>\n"
             (left - 8) (y + 13) (esc r.workload) (esc r.policy));
        Buffer.add_string b
          (fp
             "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
              fill=\"%s\"><title>necessary: %d cycles</title></rect>\n"
             left y (bar_w - unnec_w) bar_h necessary_color a.necessary);
        Buffer.add_string b
          (fp
             "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
              fill=\"%s\"><title>unnecessary: %d cycles</title></rect>\n"
             (left + bar_w - unnec_w)
             y unnec_w bar_h unnecessary_color a.unnecessary);
        Buffer.add_string b
          (fp "<text x=\"%d\" y=\"%d\" class=\"value\">%.1f%% unnec</text>\n"
             (left + bar_w + 6) (y + 13) (100.0 *. share)))
      audited;
    Buffer.add_string b "</svg>\n";
    Buffer.add_string b
      (fp
         "<p class=\"legend\"><span class=\"swatch\" \
          style=\"background:%s\"></span>necessary (true branch dependency) \
          <span class=\"swatch\" style=\"background:%s\"></span>unnecessary \
          (over-restriction)</p>\n"
         necessary_color unnecessary_color)
  end

let top_pc_tables b runs =
  List.iter
    (fun r ->
      match r.audit with
      | Some a when a.top_pcs <> [] ->
        Buffer.add_string b
          (fp "<h3>%s / %s — most-restricted PCs</h3>\n" (esc r.workload)
             (esc r.policy));
        Buffer.add_string b
          "<table><tr><th>pc</th><th>episodes</th><th>necessary \
           cycles</th><th>unnecessary cycles</th></tr>\n";
        List.iter
          (fun (pc, events, nec, unnec) ->
            Buffer.add_string b
              (fp
                 "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n"
                 pc events nec unnec))
          a.top_pcs;
        Buffer.add_string b "</table>\n"
      | _ -> ())
    runs

(* ---------- leak graph (from a levioso-flowtrace JSON document) ---------- *)

type leak_node = {
  l_id : int;
  l_pc : int;
  l_kind : string;
  l_disasm : string;
  l_sources : int;
  l_transmits : int;
  l_misp : bool;
  l_outcome : string;
}

let dep_color = function
  | "data" -> "#4e79a7"
  | "address" -> "#f28e2b"
  | "speculation" -> "#e15759"
  | _ -> "#bab0ac"

let leak_node_color n =
  if n.l_sources > 0 then "#59a14f"
  else if n.l_transmits > 0 then "#e15759"
  else if n.l_misp then "#f28e2b"
  else "#bab0ac"

let leak_node_tag n =
  if n.l_sources > 0 then " SOURCE"
  else if n.l_transmits > 0 then " TRANSMIT"
  else if n.l_misp then " MISPREDICT"
  else ""

let leak_max_nodes = 40

let leak_chart b leak =
  let nodes =
    match Json.member "nodes" leak with
    | Some (Json.List ns) ->
      List.map
        (fun n ->
          {
            l_id = mem_int "id" n;
            l_pc = mem_int "pc" n;
            l_kind = mem_str "kind" n;
            l_disasm = mem_str "disasm" n;
            l_sources =
              (match Json.member "source_addrs" n with
              | Some (Json.List a) -> List.length a
              | _ -> 0);
            l_transmits =
              (match Json.member "transmit_addrs" n with
              | Some (Json.List a) -> List.length a
              | _ -> 0);
            l_misp =
              (match Json.member "mispredicted" n with
              | Some (Json.Bool m) -> m
              | _ -> false);
            l_outcome = mem_str "outcome" n;
          })
        ns
    | _ -> []
  in
  let edges =
    match Json.member "edges" leak with
    | Some (Json.List es) ->
      List.map
        (fun e -> (mem_int "src" e, mem_int "dst" e, mem_str "dep" e))
        es
    | _ -> []
  in
  let n_chains =
    match Json.member "chains" leak with
    | Some (Json.List cs) -> List.length cs
    | _ -> 0
  in
  if nodes = [] || n_chains = 0 then
    Buffer.add_string b
      "<p class=\"leak-empty\">No tainted transmits: the leak graph is \
       empty — under this policy no secret-dependent state ever reached an \
       attacker-visible channel.</p>\n"
  else begin
    let total = List.length nodes in
    let kept = List.filteri (fun i _ -> i < leak_max_nodes) nodes in
    let row_of =
      let tbl = Hashtbl.create 64 in
      List.iteri (fun i n -> Hashtbl.replace tbl n.l_id i) kept;
      fun id -> Hashtbl.find_opt tbl id
    in
    let edges =
      List.filter_map
        (fun (src, dst, dep) ->
          match (row_of src, row_of dst) with
          | Some rs, Some rd -> Some (rs, rd, src, dst, dep)
          | _ -> None)
        edges
    in
    let row_h = 22 and top = 8 in
    let rail x = 10 + (x * 7) in
    let node_x = rail (List.length edges) + 8 in
    let y i = top + (i * row_h) + (row_h / 2) in
    let width = node_x + 560 in
    let height = top + (List.length kept * row_h) + 8 in
    Buffer.add_string b
      (fp
         "<svg class=\"chart leak-graph\" width=\"%d\" height=\"%d\" \
          viewBox=\"0 0 %d %d\">\n"
         width height width height);
    List.iteri
      (fun i (rs, rd, src, dst, dep) ->
        let x = rail i in
        Buffer.add_string b
          (fp
             "<path d=\"M %d %d L %d %d L %d %d L %d %d\" fill=\"none\" \
              stroke=\"%s\" stroke-width=\"1.5\"><title>n%d → n%d \
              (%s)</title></path>\n"
             node_x (y rs) x (y rs) x (y rd) node_x (y rd) (dep_color dep)
             src dst (esc dep)))
      edges;
    List.iteri
      (fun i n ->
        Buffer.add_string b
          (fp
             "<circle cx=\"%d\" cy=\"%d\" r=\"5\" fill=\"%s\"><title>n%d \
              (%s, %s)</title></circle>\n"
             node_x (y i) (leak_node_color n) n.l_id (esc n.l_kind)
             (esc n.l_outcome));
        Buffer.add_string b
          (fp
             "<text x=\"%d\" y=\"%d\" class=\"label\">n%d pc=%d %s \
              <tspan class=\"disasm\">%s</tspan>%s</text>\n"
             (node_x + 12)
             (y i + 4)
             n.l_id n.l_pc (esc n.l_kind) (esc n.l_disasm)
             (esc (leak_node_tag n))))
      kept;
    Buffer.add_string b "</svg>\n";
    if total > leak_max_nodes then
      Buffer.add_string b
        (fp "<p class=\"legend\">Showing the first %d of %d nodes.</p>\n"
           leak_max_nodes total);
    Buffer.add_string b "<p class=\"legend\">";
    List.iter
      (fun (color, label) ->
        Buffer.add_string b
          (fp "<span class=\"swatch\" style=\"background:%s\"></span>%s \n"
             color label))
      [
        ("#59a14f", "source (tainted load of a secret)");
        ("#e15759", "transmit (tainted address reached the cache)");
        ("#f28e2b", "mispredicted branch");
        ("#4e79a7", "data edge");
        ("#f28e2b", "address edge");
        ("#e15759", "speculation edge");
      ];
    Buffer.add_string b "</p>\n"
  end

let summary_table b runs =
  Buffer.add_string b
    "<table><tr><th>workload</th><th>policy</th><th>cycles</th><th>IPC</th>\
     <th>stall cycles</th><th>audited restriction cycles</th><th>unnecessary \
     share</th></tr>\n";
  List.iter
    (fun r ->
      let audit_cells =
        match r.audit with
        | Some a when a.restricted > 0 ->
          fp "<td>%d</td><td>%.1f%%</td>" a.restricted
            (100.0 *. float_of_int a.unnecessary /. float_of_int a.restricted)
        | Some _ -> "<td>0</td><td>–</td>"
        | None -> "<td>–</td><td>–</td>"
      in
      Buffer.add_string b
        (fp
           "<tr><td>%s</td><td>%s</td><td>%d</td><td>%.3f</td><td>%d</td>%s</tr>\n"
           (esc r.workload) (esc r.policy) r.cycles r.ipc r.stall_total
           audit_cells))
    runs;
  Buffer.add_string b "</table>\n"

let css =
  "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;\
   color:#222}h1{font-size:1.5em}h2{font-size:1.2em;margin-top:2em;\
   border-bottom:1px solid #ddd;padding-bottom:.2em}table{border-collapse:\
   collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.25em .6em;\
   text-align:right}th{background:#f5f5f5}td:first-child,th:first-child,\
   td:nth-child(2),th:nth-child(2){text-align:left}svg.chart{margin:.5em 0}\
   svg text.label{font-size:11px;fill:#444}svg text.value{font-size:10px;\
   fill:#222}svg text.axis{font-size:10px;fill:#777}.legend{font-size:.85em}\
   .swatch{display:inline-block;width:.9em;height:.9em;margin:0 .3em 0 .9em;\
   vertical-align:-.1em}"

let render ?(title = "Levioso report") ?leak matrix =
  match read_runs matrix with
  | Ok runs ->
    let workloads = first_appearance (List.map (fun r -> r.workload) runs) in
    let policies = first_appearance (List.map (fun r -> r.policy) runs) in
    let color_of p =
      let rec index i = function
        | [] -> 0
        | x :: _ when x = p -> i
        | _ :: rest -> index (i + 1) rest
      in
      policy_palette.(index 0 policies mod Array.length policy_palette)
    in
    let b = Buffer.create 16384 in
    Buffer.add_string b "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
    Buffer.add_string b (fp "<title>%s</title>\n" (esc title));
    Buffer.add_string b (fp "<style>%s</style>\n" css);
    Buffer.add_string b "</head><body>\n";
    Buffer.add_string b (fp "<h1>%s</h1>\n" (esc title));
    Buffer.add_string b
      (fp "<p>%d runs · %d workloads · %d policies</p>\n" (List.length runs)
         (List.length workloads) (List.length policies));

    Buffer.add_string b "<h2>Normalized execution time</h2>\n";
    Buffer.add_string b
      "<p>Cycles relative to the same workload's <code>unsafe</code> run \
       (dashed line = 1.0; fastest run when no unsafe baseline is \
       present).</p>\n";
    overhead_chart b runs ~workloads ~policies ~color_of;
    Buffer.add_string b "<p class=\"legend\">";
    List.iter
      (fun p ->
        Buffer.add_string b
          (fp "<span class=\"swatch\" style=\"background:%s\"></span>%s \n"
             (color_of p) (esc p)))
      policies;
    Buffer.add_string b "</p>\n";

    Buffer.add_string b "<h2>Stall-cause breakdown</h2>\n";
    Buffer.add_string b
      "<p>Attributed waiting entry-cycles per run, stacked by cause; the \
       <code>policy_gate</code> segment is the cycles the defense itself \
       injected.</p>\n";
    stall_chart b runs ~color_of;

    Buffer.add_string b "<h2>Restriction necessity</h2>\n";
    Buffer.add_string b
      "<p>Audited restriction cycles split by whether the gated instruction \
       truly depends on an unresolved branch (per the static \
       branch-dependence analysis).  Unnecessary cycles are pure \
       over-restriction — the overhead a dependency-aware defense \
       avoids.</p>\n";
    necessity_chart b runs;
    top_pc_tables b runs;

    (match leak with
    | None -> ()
    | Some l ->
      Buffer.add_string b "<h2>Speculative leakage provenance</h2>\n";
      Buffer.add_string b
        "<p>Taint-flow leak graph (from <code>levioso_sim \
         --leak-trace</code>): the chain from a mispredicted branch through \
         secret-tainted loads to the attacker-visible probe access.</p>\n";
      leak_chart b l);

    Buffer.add_string b "<h2>Raw numbers</h2>\n";
    summary_table b runs;
    Buffer.add_string b "</body></html>\n";
    Ok (Buffer.contents b)
  | Error msg -> Error msg

let render_exn ?title ?leak matrix =
  match render ?title ?leak matrix with
  | Ok s -> s
  | Error msg -> invalid_arg ("Html_report.render: " ^ msg)
