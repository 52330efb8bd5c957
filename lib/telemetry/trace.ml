type event = {
  cycle : int;
  seq : int;
  pc : int;
  stage : string;
  args : (string * Json.t) list;
}

let event_to_json e =
  Json.Obj
    (("cycle", Json.Int e.cycle)
     :: ("stage", Json.String e.stage)
     :: (if e.seq >= 0 then [ ("seq", Json.Int e.seq) ] else [])
    @ (if e.pc >= 0 then [ ("pc", Json.Int e.pc) ] else [])
    @ e.args)

type format =
  | Jsonl
  | Chrome

let format_of_filename name =
  if Filename.check_suffix name ".jsonl" then Jsonl else Chrome

type output =
  | To_channel of { oc : out_channel; format : format }
  | To_fn of (event -> unit)

type sink = {
  every : int;
  output : output;
  mutable n_seen : int;
  mutable n_written : int;
  mutable closed : bool;
  (* chrome format: distinct tracks per stage, assigned on first use *)
  tids : (string, int) Hashtbl.t;
  mutable cur_pid : int;
  mutable next_pid : int;
}

let make every output =
  if every < 1 then invalid_arg "Trace: ~every must be >= 1";
  {
    every;
    output;
    n_seen = 0;
    n_written = 0;
    closed = false;
    tids = Hashtbl.create 8;
    cur_pid = 0;
    next_pid = 1;
  }

let to_channel ?(every = 1) ~format oc =
  let s = make every (To_channel { oc; format }) in
  (match format with
  | Chrome -> output_string oc "{\"traceEvents\":[\n"
  | Jsonl -> ());
  s

let of_fn ?(every = 1) f = make every (To_fn f)

let tid_of s stage =
  match Hashtbl.find_opt s.tids stage with
  | Some t -> t
  | None ->
    let t = Hashtbl.length s.tids in
    Hashtbl.add s.tids stage t;
    t

(* Low-level record write: handles the Chrome comma separator. *)
let write_json s j =
  match s.output with
  | To_fn _ -> ()
  | To_channel { oc; format = Jsonl } ->
    output_string oc (Json.to_string ~minify:true j);
    output_char oc '\n'
  | To_channel { oc; format = Chrome } ->
    if s.n_written > 0 then output_string oc ",\n";
    output_string oc (Json.to_string ~minify:true j)

let chrome_complete ~name ~cat ~ts ~dur ~pid ~tid args =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String cat);
      ("ph", Json.String "X");
      ("ts", Json.Int ts);
      ("dur", Json.Int dur);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let chrome_metadata ~name ~pid ~tid label =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String label) ]);
    ]

let chrome_json s e =
  chrome_complete ~name:e.stage ~cat:"sim" ~ts:e.cycle ~dur:1 ~pid:s.cur_pid
    ~tid:(tid_of s e.stage)
    ((if e.seq >= 0 then [ ("seq", Json.Int e.seq) ] else [])
    @ (if e.pc >= 0 then [ ("pc", Json.Int e.pc) ] else [])
    @ e.args)

let emit s e =
  if s.closed then invalid_arg "Trace.emit: sink is closed";
  let keep = s.n_seen mod s.every = 0 in
  s.n_seen <- s.n_seen + 1;
  if keep then begin
    (match s.output with
    | To_fn f -> f e
    | To_channel { format = Jsonl; _ } -> write_json s (event_to_json e)
    | To_channel { format = Chrome; _ } -> write_json s (chrome_json s e));
    s.n_written <- s.n_written + 1
  end

let begin_process s ~name =
  if s.closed then invalid_arg "Trace.begin_process: sink is closed";
  let pid = s.next_pid in
  s.next_pid <- pid + 1;
  s.cur_pid <- pid;
  match s.output with
  | To_fn _ -> ()
  | To_channel { format = Jsonl; _ } ->
    write_json s
      (Json.Obj
         [
           ("stage", Json.String "process");
           ("pid", Json.Int pid);
           ("name", Json.String name);
         ]);
    s.n_written <- s.n_written + 1
  | To_channel { format = Chrome; _ } ->
    (* trace_event metadata record naming the process track *)
    write_json s (chrome_metadata ~name:"process_name" ~pid ~tid:0 name);
    s.n_written <- s.n_written + 1

let close s =
  if not s.closed then begin
    s.closed <- true;
    match s.output with
    | To_fn _ -> ()
    | To_channel { oc; format = Chrome } ->
      output_string oc "\n]}\n";
      flush oc
    | To_channel { oc; format = Jsonl } -> flush oc
  end

let seen s = s.n_seen
let written s = s.n_written
