type t = {
  label : string;
  ansi : out_channel option;
  metrics_path : string option;
  min_interval : float;
  mu : Mutex.t;
  started : float;
  mutable total : int option;
  mutable done_ : int;
  mutable failures : int option;
  mutable current : (int * string) list;  (* domain id, what *)
  mutable gauges : (string * (string * float)) list;  (* name -> help, value *)
  (* name -> help, ((upper_bound, cumulative_count) list, sum, count) *)
  mutable hists : (string * (string * ((float * int) list * float * int))) list;
  mutable last_render : float;
  mutable closed : bool;
}

(* The in-place ANSI status line is for humans at a terminal: when the
   channel is piped or redirected (CI logs, `2> file`), the \r\027[2K
   rewrites turn into noise, so drop it unless the caller forces it
   (an explicit --progress flag). The OpenMetrics file is unaffected. *)
let wants_ansi ~force oc =
  force
  || (try Unix.isatty (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> false)

let create ?ansi ?(force_ansi = false) ?metrics_path
    ?(min_interval = 0.5) ?total ~label () =
  let ansi =
    match ansi with
    | Some oc when not (wants_ansi ~force:force_ansi oc) -> None
    | other -> other
  in
  {
    label;
    ansi;
    metrics_path;
    min_interval;
    mu = Mutex.create ();
    started = Unix.gettimeofday ();
    total;
    done_ = 0;
    failures = None;
    current = [];
    gauges = [];
    hists = [];
    last_render = neg_infinity;
    closed = false;
  }

let locked t f = Mutex.protect t.mu f

let domain_id () = (Domain.self () :> int)

(* --- snapshot rendering (call with the lock held) --- *)

let eta_s t elapsed =
  match t.total with
  | Some tot when t.done_ >= tot -> Some 0.
  | Some tot when t.done_ > 0 ->
      Some (elapsed /. float_of_int t.done_ *. float_of_int (tot - t.done_))
  | _ -> None

(* GC health counters from [Gc.quick_stat] (O(1)).  [live_words] is
   deliberately absent — on OCaml 5 [quick_stat] reports it as 0 and the
   accurate [Gc.stat] walks the whole heap, far too expensive for a
   0.5 s render cadence — so heap/top-heap words stand in for heap
   pressure. *)
let gc_counters () =
  let q = Gc.quick_stat () in
  [
    ("gc_heap_words", "Major heap size, words.", float_of_int q.Gc.heap_words);
    ("gc_top_heap_words", "Largest major heap size reached, words.", float_of_int q.Gc.top_heap_words);
    ("gc_minor_collections", "Minor collections since start.", float_of_int q.Gc.minor_collections);
    ("gc_major_collections", "Major collection cycles since start.", float_of_int q.Gc.major_collections);
    ("gc_minor_words", "Words allocated in the minor heap since start.", q.Gc.minor_words);
    ("gc_promoted_words", "Words promoted to the major heap since start.", q.Gc.promoted_words);
  ]

(* Process-level self-metrics: uptime plus the GC counters, less the
   promoted words, which only the daemon's history samples record. *)
let process_metrics elapsed =
  ("uptime_seconds", "Wall clock seconds since this process's monitor started.", elapsed)
  :: List.filter (fun (n, _, _) -> n <> "gc_promoted_words") (gc_counters ())

let om_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let openmetrics_locked t now =
  let elapsed = now -. t.started in
  let buf = Buffer.create 512 in
  let job = om_escape t.label in
  let labels = Printf.sprintf "{job=\"%s\"}" job in
  let gauge name help v =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (om_escape help));
    Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name labels v)
  in
  let histogram name help (buckets, sum, count) =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (om_escape help));
    List.iter
      (fun (le, n) ->
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{job=\"%s\",le=\"%g\"} %d\n" name job le n))
      buckets;
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket{job=\"%s\",le=\"+Inf\"} %d\n" name job count);
    Buffer.add_string buf (Printf.sprintf "%s_sum%s %g\n" name labels sum);
    Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name labels count)
  in
  gauge "levioso_progress_done" "Items completed."
    (string_of_int t.done_);
  (match t.total with
  | Some tot ->
      gauge "levioso_progress_total" "Items planned." (string_of_int tot)
  | None -> ());
  (match t.failures with
  | Some f ->
      gauge "levioso_progress_failures" "Failures observed."
        (string_of_int f)
  | None -> ());
  gauge "levioso_progress_elapsed_seconds" "Wall clock since start."
    (Printf.sprintf "%.3f" elapsed);
  List.iter
    (fun (name, help, v) ->
      gauge ("levioso_" ^ name) help (Printf.sprintf "%g" v))
    (process_metrics elapsed);
  (* insertion order, so the ordering is stable across updates *)
  List.iter
    (fun (name, (help, v)) ->
      gauge ("levioso_" ^ name) help (Printf.sprintf "%g" v))
    t.gauges;
  List.iter
    (fun (name, (help, h)) -> histogram ("levioso_" ^ name) help h)
    t.hists;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let status_line_locked t now =
  let elapsed = now -. t.started in
  let frac =
    match t.total with
    | Some tot when tot > 0 ->
        Printf.sprintf "%d/%d (%.0f%%)" t.done_ tot
          (100. *. float_of_int t.done_ /. float_of_int tot)
    | _ -> Printf.sprintf "%d" t.done_
  in
  let eta =
    match eta_s t elapsed with
    | Some e -> Printf.sprintf " eta %.1fs" e
    | None -> ""
  in
  let fails =
    match t.failures with
    | Some f when f > 0 -> Printf.sprintf " failures %d" f
    | _ -> ""
  in
  let cur =
    match List.sort compare t.current with
    | [] -> ""
    | l ->
        " | "
        ^ String.concat " " (List.map snd l)
  in
  let line =
    Printf.sprintf "%s: %s elapsed %.1fs%s%s%s" t.label frac elapsed eta fails
      cur
  in
  if String.length line > 120 then String.sub line 0 117 ^ "..." else line

let render_locked ?(final = false) t =
  let now = Unix.gettimeofday () in
  if final || now -. t.last_render >= t.min_interval then (
    t.last_render <- now;
    (match t.metrics_path with
    | Some p ->
      Files.write_atomic p (fun oc ->
          output_string oc (openmetrics_locked t now))
    | None -> ());
    match t.ansi with
    | Some oc ->
        output_string oc ("\r\027[2K" ^ status_line_locked t now);
        if final then output_char oc '\n';
        flush oc
    | None -> ())

let set_total t n = locked t (fun () -> t.total <- Some n)

(* Long-lived daemons learn of work incrementally, one submission at a
   time, so the planned total only ever grows. *)
let inc_total t n =
  locked t (fun () ->
      t.total <- Some (n + match t.total with Some m -> m | None -> 0);
      render_locked t)

(* OpenMetrics metric names admit [a-zA-Z0-9_:] only; anything else
   (spaces, dashes, slashes from workload names, ...) becomes '_' so a
   caller-supplied name can never corrupt the exposition format. *)
let sanitize_metric_name name =
  if name = "" then "_"
  else
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

(* Update-in-place on an insertion-ordered assoc: ordering is stable
   across any sequence of updates, so scrapes diff cleanly. *)
let upsert assoc name v =
  match List.assoc_opt name assoc with
  | Some _ -> List.map (fun (n, old) -> if n = name then (n, v) else (n, old)) assoc
  | None -> assoc @ [ (name, v) ]

let set_gauge t ?(help = "Application gauge.") name v =
  let name = sanitize_metric_name name in
  locked t (fun () ->
      t.gauges <- upsert t.gauges name (help, v);
      render_locked t)

let set_histogram t ?(help = "Application latency histogram.") name ~buckets
    ~sum ~count =
  let name = sanitize_metric_name name in
  locked t (fun () ->
      t.hists <- upsert t.hists name (help, (buckets, sum, count));
      render_locked t)

let start t what =
  locked t (fun () ->
      let d = domain_id () in
      t.current <- (d, what) :: List.filter (fun (d', _) -> d' <> d) t.current;
      render_locked t)

let item_done t =
  locked t (fun () ->
      let d = domain_id () in
      t.current <- List.filter (fun (d', _) -> d' <> d) t.current;
      t.done_ <- t.done_ + 1;
      render_locked t)

let progress t ?failures ~done_ () =
  locked t (fun () ->
      t.done_ <- done_;
      (match failures with Some f -> t.failures <- Some f | None -> ());
      render_locked t)

let openmetrics t =
  locked t (fun () -> openmetrics_locked t (Unix.gettimeofday ()))

let close t =
  locked t (fun () ->
      if not t.closed then (
        t.closed <- true;
        render_locked ~final:true t))
