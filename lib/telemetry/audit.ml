type reason =
  | Branch_dep of (int * int) list
  | Taint of (int * int) list
  | Overflow
  | Unspecified

let reason_kind = function
  | Branch_dep _ -> "branch_dep"
  | Taint _ -> "taint"
  | Overflow -> "overflow"
  | Unspecified -> "unspecified"

let reason_kinds = [ "branch_dep"; "taint"; "overflow"; "unspecified" ]

let reason_index = function
  | Branch_dep _ -> 0
  | Taint _ -> 1
  | Overflow -> 2
  | Unspecified -> 3

type outcome =
  | Issued
  | Squashed

let outcome_to_string = function
  | Issued -> "issued"
  | Squashed -> "squashed"

type event = {
  seq : int;
  pc : int;
  policy : string;
  reason : reason;
  necessary : bool;
  cycles : int;
  end_cycle : int;
  outcome : outcome;
}

type pc_agg = {
  mutable a_events : int;
  mutable a_necessary_cycles : int;
  mutable a_unnecessary_cycles : int;
}

type t = {
  ring : event Ring.t;  (* [Ring.pushed] counts every recorded event *)
  mutable n_cycles : int;
  mutable nec_events : int;
  mutable nec_cycles : int;
  reason_events : int array;  (* per reason kind *)
  reason_cycles : int array;
  per_pc : (int, pc_agg) Hashtbl.t;
  is_true_dep : pc:int -> branch_pc:int -> bool;
  mutable sink : Trace.sink option;
}

let create ?(capacity = 4096) ?(is_true_dep = fun ~pc:_ ~branch_pc:_ -> true)
    () =
  if capacity < 1 then invalid_arg "Audit.create: capacity must be >= 1";
  {
    ring = Ring.create capacity;
    n_cycles = 0;
    nec_events = 0;
    nec_cycles = 0;
    reason_events = Array.make (List.length reason_kinds) 0;
    reason_cycles = Array.make (List.length reason_kinds) 0;
    per_pc = Hashtbl.create 64;
    is_true_dep;
    sink = None;
  }

let necessary t ~pc ~branch_pcs =
  List.exists (fun branch_pc -> t.is_true_dep ~pc ~branch_pc) branch_pcs

let attach_sink t sink = t.sink <- Some sink

let reason_to_json = function
  | Branch_dep branches ->
    [
      ( "branches",
        Json.List
          (List.map
             (fun (seq, pc) ->
               Json.Obj [ ("seq", Json.Int seq); ("pc", Json.Int pc) ])
             branches) );
    ]
  | Taint roots ->
    [
      ( "roots",
        Json.List
          (List.map
             (fun (seq, pc) ->
               Json.Obj [ ("seq", Json.Int seq); ("pc", Json.Int pc) ])
             roots) );
    ]
  | Overflow | Unspecified -> []

let event_to_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("pc", Json.Int e.pc);
       ("policy", Json.String e.policy);
       ("reason", Json.String (reason_kind e.reason));
     ]
    @ reason_to_json e.reason
    @ [
        ("necessary", Json.Bool e.necessary);
        ("cycles", Json.Int e.cycles);
        ("end_cycle", Json.Int e.end_cycle);
        ("outcome", Json.String (outcome_to_string e.outcome));
      ])

let record t e =
  Ring.push t.ring e;
  t.n_cycles <- t.n_cycles + e.cycles;
  if e.necessary then begin
    t.nec_events <- t.nec_events + 1;
    t.nec_cycles <- t.nec_cycles + e.cycles
  end;
  let ri = reason_index e.reason in
  t.reason_events.(ri) <- t.reason_events.(ri) + 1;
  t.reason_cycles.(ri) <- t.reason_cycles.(ri) + e.cycles;
  let agg =
    match Hashtbl.find_opt t.per_pc e.pc with
    | Some a -> a
    | None ->
      let a =
        { a_events = 0; a_necessary_cycles = 0; a_unnecessary_cycles = 0 }
      in
      Hashtbl.add t.per_pc e.pc a;
      a
  in
  agg.a_events <- agg.a_events + 1;
  if e.necessary then
    agg.a_necessary_cycles <- agg.a_necessary_cycles + e.cycles
  else agg.a_unnecessary_cycles <- agg.a_unnecessary_cycles + e.cycles;
  match t.sink with
  | None -> ()
  | Some sink ->
    Trace.emit sink
      {
        Trace.cycle = e.end_cycle;
        seq = e.seq;
        pc = e.pc;
        stage = "restrict";
        args =
          [
            ("policy", Json.String e.policy);
            ("reason", Json.String (reason_kind e.reason));
            ("necessary", Json.Bool e.necessary);
            ("cycles", Json.Int e.cycles);
            ("outcome", Json.String (outcome_to_string e.outcome));
          ];
      }

let total_events t = Ring.pushed t.ring
let total_cycles t = t.n_cycles
let necessary_events t = t.nec_events
let necessary_cycles t = t.nec_cycles
let unnecessary_events t = total_events t - t.nec_events
let unnecessary_cycles t = t.n_cycles - t.nec_cycles

let unnecessary_share t =
  if t.n_cycles = 0 then 0.0
  else float_of_int (unnecessary_cycles t) /. float_of_int t.n_cycles

let by_reason t =
  List.mapi
    (fun i kind -> (kind, t.reason_events.(i), t.reason_cycles.(i)))
    reason_kinds

let top_pcs t ~k =
  Hashtbl.fold
    (fun pc a acc ->
      (pc, a.a_events, a.a_necessary_cycles, a.a_unnecessary_cycles) :: acc)
    t.per_pc []
  |> List.sort (fun (pa, _, na, ua) (pb, _, nb, ub) ->
         match compare (nb + ub) (na + ua) with
         | 0 -> compare pa pb
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let recent t = Ring.to_list t.ring
let dropped t = max 0 (total_events t - Ring.capacity t.ring)

let to_json ?(top_k = 10) t =
  Schema.tag
    [
      ("events", Json.Int (total_events t));
      ("cycles", Json.Int t.n_cycles);
      ("dropped_events", Json.Int (dropped t));
      ( "necessary",
        Json.Obj
          [
            ("events", Json.Int t.nec_events); ("cycles", Json.Int t.nec_cycles);
          ] );
      ( "unnecessary",
        Json.Obj
          [
            ("events", Json.Int (unnecessary_events t));
            ("cycles", Json.Int (unnecessary_cycles t));
          ] );
      ("unnecessary_share", Json.float (unnecessary_share t));
      ( "by_reason",
        Json.Obj
          (List.map
             (fun (kind, events, cycles) ->
               ( kind,
                 Json.Obj
                   [ ("events", Json.Int events); ("cycles", Json.Int cycles) ]
               ))
             (by_reason t)) );
      ( "top_pcs",
        Json.List
          (List.map
             (fun (pc, events, nec, unnec) ->
               Json.Obj
                 [
                   ("pc", Json.Int pc);
                   ("events", Json.Int events);
                   ("cycles", Json.Int (nec + unnec));
                   ("necessary_cycles", Json.Int nec);
                   ("unnecessary_cycles", Json.Int unnec);
                 ])
             (top_pcs t ~k:top_k)) );
    ]

let to_rows t =
  [
    ("audit events", string_of_int (total_events t));
    ("audit restricted cycles", string_of_int t.n_cycles);
    ( "audit necessary cycles",
      Printf.sprintf "%d (%d events)" t.nec_cycles t.nec_events );
    ( "audit unnecessary cycles",
      Printf.sprintf "%d (%d events)" (unnecessary_cycles t)
        (unnecessary_events t) );
    ("audit unnecessary share", Printf.sprintf "%.1f%%" (100.0 *. unnecessary_share t));
  ]
