type finished = {
  trace : string;
  id : int;
  parent : int;
  name : string;
  start_s : float;
  stop_s : float;
  attrs : (string * string) list;
}

(* Only the daemon's connection-handler threads record, and each holds
   the lock just long enough to cons one record. *)
type t = { next_id : int Atomic.t; mu : Mutex.t; mutable items : finished list }

let create () = { next_id = Atomic.make 0; mu = Mutex.create (); items = [] }

let fresh_id t = Atomic.fetch_and_add t.next_id 1

let add t f = Mutex.protect t.mu (fun () -> t.items <- f :: t.items)

let trace_counter = Atomic.make 0

let mint_trace () =
  Printf.sprintf "tr-%d-%d" (Unix.getpid ())
    (Atomic.fetch_and_add trace_counter 1)

let drain t =
  let all =
    Mutex.protect t.mu (fun () ->
        let i = t.items in
        t.items <- [];
        i)
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

module Latency = struct
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

  type t = {
    mu : Mutex.t;
    counts : int array;  (* one per bound + overflow *)
    mutable sum : float;
    recent : float Ring.t;  (* its [pushed] is the observation count *)
  }

  let create () =
    {
      mu = Mutex.create ();
      counts = Array.make (Array.length bounds + 1) 0;
      sum = 0.;
      recent = Ring.create 512;
    }

  let slot v =
    let n = Array.length bounds in
    let rec find i =
      if i >= n then n else if v <= bounds.(i) then i else find (i + 1)
    in
    find 0

  let observe t v =
    let i = slot v in
    Mutex.protect t.mu (fun () ->
        t.counts.(i) <- t.counts.(i) + 1;
        t.sum <- t.sum +. v;
        Ring.push t.recent v)

  type reading = {
    seen : int;
    sum : float;
    buckets : (float * int) list;
    recent : float array Lazy.t;
  }

  let read t =
    let seen, sum, counts, recent =
      Mutex.protect t.mu (fun () ->
          ( Ring.pushed t.recent,
            t.sum,
            Array.copy t.counts,
            Ring.to_list t.recent ))
    in
    let acc = ref 0 in
    {
      seen;
      sum;
      buckets =
        Array.to_list
          (Array.mapi
             (fun i b ->
               acc := !acc + counts.(i);
               (b, !acc))
             bounds);
      recent =
        lazy
          (let a = Array.of_list recent in
           Array.sort Float.compare a;
           a);
    }

  let nearest_rank sorted q =
    let n = Array.length sorted in
    if n = 0 then None
    else
      Some
        sorted.(min (n - 1)
                  (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
end
