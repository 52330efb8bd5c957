type clock = unit -> float

type finished = {
  trace : string;
  id : int;
  parent : int;
  name : string;
  start_s : float;
  stop_s : float;
  attrs : (string * string) list;
}

type span = {
  sp_trace : string;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  mutable sp_attrs : (string * string) list;  (* reversed *)
}

(* One buffer per domain: a connection-handler thread and a pool worker
   never share a mutex, and threads within one domain (the handler
   systhreads all live on domain 0) serialize on their buffer's own
   lock only while consing one record. *)
type buffer = { bmu : Mutex.t; mutable items : finished list }

type t = {
  clock : clock;
  epoch : float;
  next_id : int Atomic.t;
  mu : Mutex.t;  (* guards [buffers] growth only *)
  buffers : (int, buffer) Hashtbl.t;
}

let create ?(clock = Unix.gettimeofday) () =
  {
    clock;
    epoch = clock ();
    next_id = Atomic.make 0;
    mu = Mutex.create ();
    buffers = Hashtbl.create 8;
  }

let now t = t.clock ()

let trace_counter = Atomic.make 0

let mint_trace () =
  Printf.sprintf "tr-%d-%d" (Unix.getpid ())
    (Atomic.fetch_and_add trace_counter 1)

let start t ?(trace = "") ?(parent = -1) name =
  {
    sp_trace = trace;
    sp_id = Atomic.fetch_and_add t.next_id 1;
    sp_parent = parent;
    sp_name = name;
    sp_start = t.clock ();
    sp_attrs = [];
  }

let add_attr sp k v = sp.sp_attrs <- (k, v) :: sp.sp_attrs

let id sp = sp.sp_id

let buffer_for t =
  let d = (Domain.self () :> int) in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.buffers d with
      | Some b -> b
      | None ->
        let b = { bmu = Mutex.create (); items = [] } in
        Hashtbl.add t.buffers d b;
        b)

let finish t ?(attrs = []) sp =
  let stop_s = t.clock () in
  let f =
    {
      trace = sp.sp_trace;
      id = sp.sp_id;
      parent = sp.sp_parent;
      name = sp.sp_name;
      start_s = sp.sp_start;
      stop_s;
      attrs = List.rev sp.sp_attrs @ attrs;
    }
  in
  let b = buffer_for t in
  Mutex.protect b.bmu (fun () -> b.items <- f :: b.items)

let duration f = f.stop_s -. f.start_s

let drain t =
  let all =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold
          (fun _ b acc ->
            let items =
              Mutex.protect b.bmu (fun () ->
                  let i = b.items in
                  b.items <- [];
                  i)
            in
            List.rev_append items acc)
          t.buffers [])
  in
  List.sort
    (fun a b ->
      match compare a.start_s b.start_s with 0 -> compare a.id b.id | c -> c)
    all

(* --- Chrome trace_event export ----------------------------------------

   Trace's record builders: complete "X" events at 1 µs resolution,
   metadata records naming tracks.  Here a track (tid) is a request
   trace, not a pipeline stage, so Perfetto shows one row per request
   with its stage spans nested by time. *)

let us ~epoch s = int_of_float (Float.round ((s -. epoch) *. 1e6))

let to_chrome ?(epoch = 0.) spans =
  let tids = Hashtbl.create 8 in
  let meta = ref [] in
  let tid_of trace =
    match Hashtbl.find_opt tids trace with
    | Some n -> n
    | None ->
      let n = Hashtbl.length tids in
      Hashtbl.add tids trace n;
      let label = if trace = "" then "untraced" else trace in
      meta :=
        Trace.chrome_metadata ~name:"thread_name" ~pid:0 ~tid:n label :: !meta;
      n
  in
  let events =
    List.map
      (fun f ->
        let ts = us ~epoch f.start_s in
        Trace.chrome_complete ~name:f.name ~cat:"serve" ~ts
          ~dur:(max 1 (us ~epoch f.stop_s - ts))
          ~pid:0 ~tid:(tid_of f.trace)
          (("span", Json.Int f.id)
          :: ("parent", Json.Int f.parent)
          :: ("trace", Json.String f.trace)
          :: List.map (fun (k, v) -> (k, Json.String v)) f.attrs))
      spans
  in
  Schema.tag [ ("traceEvents", Json.List (List.rev !meta @ events)) ]

let write_chrome ?epoch oc spans =
  Json.to_channel oc (to_chrome ?epoch spans);
  output_char oc '\n'

(* --- access log -------------------------------------------------------- *)

let access_record ~ts ~trace ~request ~index ~workload ~policy ~source ?error
    ~stages ~total_s () =
  Schema.tag
    ([
       ("kind", Json.String "levioso-serve-access");
       ("ts", Json.float ts);
       ("trace", Json.String trace);
       ("request", Json.String request);
       ("index", Json.Int index);
       ("workload", Json.String workload);
       ("policy", Json.String policy);
       ("source", Json.String source);
     ]
    @ (match error with
      | Some e -> [ ("error", Json.String e) ]
      | None -> [])
    @ List.map
        (fun (name, d) -> (name ^ "_s", Json.float (Float.max 0. d)))
        stages
    @ [ ("total_s", Json.float (Float.max 0. total_s)) ])

(* --- latency accounting ------------------------------------------------ *)

module Hist = struct
  (* 1–2.5–5 per decade, 1 µs .. 100 s: shared by every stage so bucket
     boundaries line up across metrics and across daemon restarts. *)
  let bounds =
    Array.of_list
      (List.concat_map
         (fun d ->
           let scale = 10. ** float_of_int d in
           [ 1. *. scale; 2.5 *. scale; 5. *. scale ])
         [ -6; -5; -4; -3; -2; -1; 0; 1 ]
      @ [ 100. ])

  type h = {
    counts : int array;  (* one per bound + overflow *)
    mutable hsum : float;
    mutable hcount : int;
    hmu : Mutex.t;
  }

  let create () =
    {
      counts = Array.make (Array.length bounds + 1) 0;
      hsum = 0.;
      hcount = 0;
      hmu = Mutex.create ();
    }

  let slot v =
    let n = Array.length bounds in
    let rec find i = if i >= n then n else if v <= bounds.(i) then i else find (i + 1) in
    find 0

  let observe h v =
    Mutex.protect h.hmu (fun () ->
        h.counts.(slot v) <- h.counts.(slot v) + 1;
        h.hsum <- h.hsum +. v;
        h.hcount <- h.hcount + 1)

  let count h = Mutex.protect h.hmu (fun () -> h.hcount)
  let sum h = Mutex.protect h.hmu (fun () -> h.hsum)

  let buckets h =
    Mutex.protect h.hmu (fun () ->
        let acc = ref 0 in
        Array.to_list
          (Array.mapi
             (fun i b ->
               acc := !acc + h.counts.(i);
               (b, !acc))
             bounds))

  let percentile h q =
    Mutex.protect h.hmu (fun () ->
        if h.hcount = 0 then 0.
        else begin
          let target =
            max 1 (int_of_float (Float.round (q *. float_of_int h.hcount)))
          in
          let n = Array.length bounds in
          let rec walk i acc =
            if i >= n then bounds.(n - 1)
            else
              let acc = acc + h.counts.(i) in
              if acc >= target then bounds.(i) else walk (i + 1) acc
          in
          walk 0 0
        end)
end

module Window = struct
  type w = { ring : float Ring.t; wmu : Mutex.t }

  let create capacity =
    { ring = Ring.create (max 1 capacity); wmu = Mutex.create () }

  let observe w v = Mutex.protect w.wmu (fun () -> Ring.push w.ring v)
  let count w = Mutex.protect w.wmu (fun () -> Ring.length w.ring)
  let seen w = Mutex.protect w.wmu (fun () -> Ring.pushed w.ring)

  let percentile w q =
    let live =
      Array.of_list (Mutex.protect w.wmu (fun () -> Ring.to_list w.ring))
    in
    let n = Array.length live in
    if n = 0 then None
    else begin
      Array.sort compare live;
      let rank =
        min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
      in
      Some live.(rank)
    end
end
