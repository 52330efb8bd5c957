module Html = Levioso_telemetry.Html

open Summary

let first_appearance xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

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
let d = string_of_int

(* A filled bar with a hover tooltip. *)
let bar b ~fill ~title x y w h =
  Html.el b "rect" ~title
    [ ("x", d x); ("y", d y); ("width", d w); ("height", d h); ("fill", fill) ]

(* Grouped bars: one group per workload, one bar per policy; values are
   cycles normalized to the group's baseline. *)
let overhead_chart b runs ~workloads ~policies ~color_of =
  let baseline_cycles w =
    match
      List.find_opt (fun r -> r.workload = w && r.policy = "unsafe") runs
    with
    | Some r when r.cycles > 0 -> Some r.cycles
    | _ -> (
      (* fall back to the fastest run of the workload *)
      match List.filter (fun r -> r.workload = w && r.cycles > 0) runs with
      | [] -> None
      | rs -> Some (List.fold_left (fun c r -> min c r.cycles) max_int rs))
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
  Html.svg b ~width ~height (fun () ->
      (* gridline at 1.0 (the baseline) *)
      Html.el b "line"
        [ ("x1", d left); ("y1", d (y 1.0)); ("x2", d (width - 4));
          ("y2", d (y 1.0)); ("stroke", "#999"); ("stroke-dasharray", "4 3") ];
      Html.text b "axis" 8 (y 1.0 + 4) "1.00";
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
                bar b ~fill:(color_of p)
                  ~title:(fp "%s / %s: %d cycles (%.2fx)" w p r.cycles v)
                  x by bar_w (top + plot_h - by);
                Html.text b ~anchor:"middle" "value" (x + (bar_w / 2)) (by - 4)
                  (fp "%.2f" v))
            policies;
          Html.text b ~anchor:"middle" "label"
            (gx + (List.length policies * (bar_w + gap) / 2))
            (top + plot_h + 16) w)
        workloads)

(* One stacked bar per run, segments by stall cause. *)
let stall_chart b runs =
  let runs = List.filter (fun r -> r.stall_total > 0) runs in
  if runs <> [] then begin
    let max_total =
      List.fold_left (fun acc r -> max acc r.stall_total) 1 runs
    in
    let bar_w = 34 and gap = 14 in
    let plot_h = 180 and top = 24 and left = 10 in
    let width = left + (List.length runs * (bar_w + gap)) + 10 in
    let height = plot_h + top + 56 in
    Html.svg b ~width ~height (fun () ->
        List.iteri
          (fun i r ->
            let x = left + (i * (bar_w + gap)) in
            let scale n =
              int_of_float
                (float_of_int plot_h *. float_of_int n
               /. float_of_int max_total)
            in
            let cy = ref (top + plot_h) in
            List.iter
              (fun (cause, n) ->
                if n > 0 then begin
                  let h = scale n in
                  cy := !cy - h;
                  bar b ~fill:(cause_color cause)
                    ~title:(fp "%s / %s — %s: %d" r.workload r.policy cause n)
                    x !cy bar_w h
                end)
              r.by_cause;
            let mid = x + (bar_w / 2) in
            Html.text b ~anchor:"middle" "value" mid (!cy - 4)
              (d r.stall_total);
            Html.text b ~anchor:"middle" "label" mid (top + plot_h + 14)
              r.workload;
            Html.text b ~anchor:"middle" "label" mid (top + plot_h + 28)
              r.policy)
          runs);
    Html.legend b
      (List.map
         (fun cause -> (cause_color cause, cause))
         (first_appearance
            (List.concat_map (fun r -> List.map fst r.by_cause) runs)))
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
    Html.para b
      "No audited restriction cycles in this matrix (run with \
       <code>--audit</code>)."
  else begin
    let bar_w = 360 and bar_h = 18 and row_h = 26 and left = 170 in
    let width = left + bar_w + 90 in
    let height = (List.length audited * row_h) + 10 in
    Html.svg b ~width ~height (fun () ->
        List.iteri
          (fun i (r, a) ->
            let y = 4 + (i * row_h) in
            let share =
              float_of_int a.unnecessary /. float_of_int (max 1 a.restricted)
            in
            let unnec_w = int_of_float (float_of_int bar_w *. share) in
            Html.text b ~anchor:"end" "label" (left - 8) (y + 13)
              (fp "%s / %s" r.workload r.policy);
            bar b ~fill:necessary_color
              ~title:(fp "necessary: %d cycles" a.necessary)
              left y (bar_w - unnec_w) bar_h;
            bar b ~fill:unnecessary_color
              ~title:(fp "unnecessary: %d cycles" a.unnecessary)
              (left + bar_w - unnec_w)
              y unnec_w bar_h;
            Html.text b "value" (left + bar_w + 6) (y + 13)
              (fp "%.1f%% unnec" (100.0 *. share)))
          audited);
    Html.legend b ~one_line:true
      [
        (necessary_color, "necessary (true branch dependency)");
        (unnecessary_color, "unnecessary (over-restriction)");
      ]
  end

let top_pc_tables b runs =
  List.iter
    (fun r ->
      match r.audit with
      | Some a when a.top_pcs <> [] ->
        Html.heading b 3
          (fp "%s / %s — most-restricted PCs" r.workload r.policy);
        Html.table b
          [ "pc"; "episodes"; "necessary cycles"; "unnecessary cycles" ]
          (List.map
             (fun (pc, events, nec, unnec) ->
               List.map Html.td [ d pc; d events; d nec; d unnec ])
             a.top_pcs)
      | _ -> ())
    runs

(* ---------- leak graph (from a levioso-flowtrace JSON document) ---------- *)

let dep_color = function
  | "data" -> "#4e79a7"
  | "address" -> "#f28e2b"
  | "speculation" -> "#e15759"
  | _ -> "#bab0ac"

let leak_node_color n =
  if n.sources > 0 then "#59a14f"
  else if n.transmits > 0 then "#e15759"
  else if n.mispredicted then "#f28e2b"
  else "#bab0ac"

let leak_node_tag n =
  if n.sources > 0 then " SOURCE"
  else if n.transmits > 0 then " TRANSMIT"
  else if n.mispredicted then " MISPREDICT"
  else ""

let leak_max_nodes = 40

let leak_chart b { nodes; edges; chains } =
  if nodes = [] || chains = 0 then
    Html.para b ~cls:"leak-empty"
      "No tainted transmits: the leak graph is empty — under this policy no \
       secret-dependent state ever reached an attacker-visible channel."
  else begin
    let total = List.length nodes in
    let kept = List.filteri (fun i _ -> i < leak_max_nodes) nodes in
    let row_of id = List.find_index (fun n -> n.id = id) kept in
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
    Html.svg b ~cls:"leak-graph" ~width ~height (fun () ->
        List.iteri
          (fun i (rs, rd, src, dst, dep) ->
            let x = rail i in
            Html.el b "path"
              ~title:(fp "n%d → n%d (%s)" src dst dep)
              [ ( "d",
                  fp "M %d %d L %d %d L %d %d L %d %d" node_x (y rs) x (y rs)
                    x (y rd) node_x (y rd) );
                ("fill", "none"); ("stroke", dep_color dep);
                ("stroke-width", "1.5") ])
          edges;
        List.iteri
          (fun i n ->
            Html.el b "circle"
              ~title:(fp "n%d (%s, %s)" n.id n.kind n.outcome)
              [ ("cx", d node_x); ("cy", d (y i)); ("r", "5");
                ("fill", leak_node_color n) ];
            Html.el b "text"
              ~markup:
                (Html.esc (fp "n%d pc=%d %s " n.id n.pc n.kind)
                ^ Html.inline "tspan" ~cls:"disasm" n.disasm
                ^ Html.esc (leak_node_tag n))
              [ ("x", d (node_x + 12)); ("y", d (y i + 4)); ("class", "label") ])
          kept);
    if total > leak_max_nodes then
      Html.para b ~cls:"legend"
        (fp "Showing the first %d of %d nodes." leak_max_nodes total);
    Html.legend b
      [
        ("#59a14f", "source (tainted load of a secret)");
        ("#e15759", "transmit (tainted address reached the cache)");
        ("#f28e2b", "mispredicted branch");
        ("#4e79a7", "data edge");
        ("#f28e2b", "address edge");
        ("#e15759", "speculation edge");
      ]
  end

let summary_table b runs =
  Html.table b
    [ "workload"; "policy"; "cycles"; "IPC"; "stall cycles";
      "audited restriction cycles"; "unnecessary share" ]
    (List.map
       (fun r ->
         let audit_cells =
           match r.audit with
           | Some a when a.restricted > 0 ->
             [ d a.restricted;
               fp "%.1f%%"
                 (100.0 *. float_of_int a.unnecessary
                /. float_of_int a.restricted) ]
           | Some _ -> [ "0"; "–" ]
           | None -> [ "–"; "–" ]
         in
         List.map Html.td
           ([ r.workload; r.policy; d r.cycles; fp "%.3f" r.ipc;
              d r.stall_total ]
           @ audit_cells))
       runs)

let css =
  "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;\
   color:#222}h1{font-size:1.5em}h2{font-size:1.2em;margin-top:2em;\
   border-bottom:1px solid #ddd;padding-bottom:.2em}table{border-collapse:\
   collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.25em .6em;\
   text-align:right}th{background:#f5f5f5}td:first-child,th:first-child,\
   td:nth-child(2),th:nth-child(2){text-align:left}svg.chart{margin:.5em 0}\
   svg text.label{font-size:11px;fill:#444}svg text.value{font-size:10px;\
   fill:#222}svg text.axis{font-size:10px;fill:#777}"
  ^ Html.legend_css

let render ?(title = "Levioso report") ?leak matrix =
  match read_runs matrix with
  | Error _ as e -> e
  | Ok runs ->
    let workloads = first_appearance (List.map (fun r -> r.workload) runs) in
    let policies = first_appearance (List.map (fun r -> r.policy) runs) in
    let color_of p =
      let i = Option.value ~default:0 (List.find_index (( = ) p) policies) in
      policy_palette.(i mod Array.length policy_palette)
    in
    Ok
      (Html.page ~title ~css (fun b ->
           Html.para b
             (fp "%d runs · %d workloads · %d policies" (List.length runs)
                (List.length workloads) (List.length policies));

           Html.heading b 2 "Normalized execution time";
           Html.para b
             "Cycles relative to the same workload's <code>unsafe</code> run \
              (dashed line = 1.0; fastest run when no unsafe baseline is \
              present).";
           overhead_chart b runs ~workloads ~policies ~color_of;
           Html.legend b (List.map (fun p -> (color_of p, p)) policies);

           Html.heading b 2 "Stall-cause breakdown";
           Html.para b
             "Attributed waiting entry-cycles per run, stacked by cause; the \
              <code>policy_gate</code> segment is the cycles the defense \
              itself injected.";
           stall_chart b runs;

           Html.heading b 2 "Restriction necessity";
           Html.para b
             "Audited restriction cycles split by whether the gated \
              instruction truly depends on an unresolved branch (per the \
              static branch-dependence analysis).  Unnecessary cycles are \
              pure over-restriction — the overhead a dependency-aware \
              defense avoids.";
           necessity_chart b runs;
           top_pc_tables b runs;

           Option.iter
             (fun l ->
               Html.heading b 2 "Speculative leakage provenance";
               Html.para b
                 "Taint-flow leak graph (from <code>levioso_sim \
                  --leak-trace</code>): the chain from a mispredicted branch \
                  through secret-tainted loads to the attacker-visible probe \
                  access.";
               leak_chart b l)
             leak;

           Html.heading b 2 "Raw numbers";
           summary_table b runs))
