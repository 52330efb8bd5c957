let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* losing a race to another creator is success *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let tmp_counter = Atomic.make 0

let write_atomic path write =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc =
    try open_out_bin tmp
    with Sys_error msg ->
      (* report the file the caller asked for, not the temp file *)
      let prefix = tmp ^ ": " in
      let n = String.length prefix in
      raise
        (Sys_error
           (path ^ ": "
           ^
           if String.starts_with ~prefix msg then
             String.sub msg n (String.length msg - n)
           else msg))
  in
  match write oc with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
