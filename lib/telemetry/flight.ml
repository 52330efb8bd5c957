(* Bounded rings + post-mortem dump.  See flight.mli. *)

type t = {
  mu : Mutex.t;
  samples : Tsdb.sample Ring.t;
  records : Json.t Ring.t;
}

let create ?(samples = 256) ?(records = 256) () =
  {
    mu = Mutex.create ();
    samples = Ring.create (max 1 samples);
    records = Ring.create (max 1 records);
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let add_sample t s = locked t (fun () -> Ring.push t.samples s)
let add_record t j = locked t (fun () -> Ring.push t.records j)
let sample_count t = locked t (fun () -> Ring.length t.samples)

let dump t ~reason ~ts =
  locked t (fun () ->
      Schema.tag
        [
          ("kind", Json.String "levioso-postmortem");
          ("reason", Json.String reason);
          ("ts", Json.float ts);
          ( "samples",
            Json.List (List.map Tsdb.sample_to_json (Ring.to_list t.samples))
          );
          ("records", Json.List (Ring.to_list t.records));
        ])

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write t ~dir ~reason ~ts =
  let json = dump t ~reason ~ts in
  mkdir_p dir;
  let rec free_path n =
    if n > 999 then None
    else
      let path = Filename.concat dir (Printf.sprintf "postmortem-%03d.json" n) in
      if Sys.file_exists path then free_path (n + 1) else Some path
  in
  match free_path 0 with
  | None -> Error "flight recorder: no free postmortem-NNN.json slot"
  | Some path -> (
      try
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Json.to_channel oc json;
        output_char oc '\n';
        close_out oc;
        Sys.rename tmp path;
        Ok path
      with Sys_error e -> Error e)
