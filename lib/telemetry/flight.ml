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

let locked t f = Mutex.protect t.mu f

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

(* The slot is claimed by creating it with O_EXCL, so two dumps at once
   (a SIGUSR1 dump in the sampler, a deadlock dump in a client thread)
   never take the same one; the content then replaces the empty claim
   atomically. *)
let write t ~dir ~reason ~ts =
  let json = dump t ~reason ~ts in
  Files.mkdir_p dir;
  let rec claim n =
    if n > 999 then Error "flight recorder: no free postmortem-NNN.json slot"
    else
      let path = Filename.concat dir (Printf.sprintf "postmortem-%03d.json" n) in
      match Unix.openfile path Unix.[ O_WRONLY; O_CREAT; O_EXCL ] 0o644 with
      | fd ->
        Unix.close fd;
        Ok path
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> claim (n + 1)
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  in
  Result.bind (claim 0) (fun path ->
      try
        Files.write_atomic path (fun oc ->
            Json.to_channel oc json;
            output_char oc '\n');
        Ok path
      with Sys_error e ->
        (try Sys.remove path with Sys_error _ -> ());
        Error e)
