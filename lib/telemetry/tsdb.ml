(* Append-only on-disk metrics time-series.  See tsdb.mli for the
   design contract; the invariants that matter here:

   - every completed record is one full line in exactly one segment
     file, flushed before [append] returns;
   - rotation and retention only ever create or unlink whole segment
     files, so concurrent readers of the directory see a consistent
     prefix of history;
   - the clock is read exactly once per [append] and nowhere else. *)

type clock = unit -> float

type sample = { ts : float; fields : (string * float) list }

let sample_kind = "levioso-tsdb-sample"

let sample_to_json s =
  Schema.tag
    [
      ("kind", Json.String sample_kind);
      ("ts", Json.float s.ts);
      ("fields", Json.Obj (List.map (fun (k, v) -> (k, Json.float v)) s.fields));
    ]

let sample_of j =
  (* a sample keeps its numeric fields and skips the rest *)
  let numeric k = function
    | Json.Float f -> Some (k, f)
    | Json.Int i -> Some (k, float_of_int i)
    | _ -> None
  in
  let kind = Json.(get to_string_exn) "kind" j in
  if kind <> sample_kind then
    invalid_arg (Printf.sprintf "tsdb record: unknown kind %S" kind);
  let ts = Json.(get to_float_exn) "ts" j in
  let fields = Json.(get (fields numeric)) "fields" j in
  { ts; fields = List.filter_map Fun.id fields }

let sample_of_json j =
  Result.bind (Schema.check ~what:"tsdb record" j) (fun () ->
      Json.decoded sample_of j)

let history_doc samples =
  Schema.tag
    [
      ("kind", Json.String "levioso-history");
      ("count", Json.Int (List.length samples));
      ("records", Json.List (List.map sample_to_json samples));
    ]

(* ---------- segment naming ---------- *)

let segment_name seq = Printf.sprintf "seg-%08d.jsonl" seq

let segment_seq name =
  (* [seg-00000042.jsonl] -> [Some 42] *)
  if
    String.length name = String.length "seg-00000000.jsonl"
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".jsonl"
  then int_of_string_opt (String.sub name 4 8)
  else None

let segment_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let segs =
        Array.to_list names
        |> List.filter_map (fun n ->
               match segment_seq n with
               | Some seq -> Some (seq, Filename.concat dir n)
               | None -> None)
      in
      List.sort compare segs |> List.map snd

(* ---------- writer ---------- *)

type t = {
  dir : string;
  clock : clock;
  max_segment_bytes : int;
  max_total_bytes : int;
  mu : Mutex.t;
  mutable seq : int;  (* sequence number of the active segment *)
  mutable chan : out_channel option;  (* active segment, opened lazily *)
  mutable chan_bytes : int;  (* bytes written to the active segment *)
}

let create ?(clock = Unix.gettimeofday) ?(max_segment_bytes = 256 * 1024)
    ?(max_total_bytes = 16 * 1024 * 1024) ~dir () =
  Files.mkdir_p dir;
  let seq =
    (* resume after any segment a previous process left behind *)
    List.fold_left
      (fun acc path ->
        match segment_seq (Filename.basename path) with
        | Some s when s >= acc -> s + 1
        | _ -> acc)
      0 (segment_files dir)
  in
  {
    dir;
    clock;
    max_segment_bytes;
    max_total_bytes;
    mu = Mutex.create ();
    seq;
    chan = None;
    chan_bytes = 0;
  }

let now t = t.clock ()

let active_chan t =
  match t.chan with
  | Some ch -> ch
  | None ->
      let ch = open_out (Filename.concat t.dir (segment_name t.seq)) in
      t.chan <- Some ch;
      t.chan_bytes <- 0;
      ch

let rotate_locked t =
  (match t.chan with
  | Some ch ->
      close_out ch;
      t.chan <- None;
      t.chan_bytes <- 0
  | None -> ());
  t.seq <- t.seq + 1

let retain_locked t =
  (* Consider only rotated (closed) segments, oldest first; the active
     segment is never deleted out from under the writer. *)
  let rotated =
    List.filter
      (fun path ->
        match segment_seq (Filename.basename path) with
        | Some s -> s < t.seq
        | None -> false)
      (segment_files t.dir)
  in
  let sizes =
    List.map (fun p -> (p, try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0)) rotated
  in
  let total = ref (List.fold_left (fun acc (_, s) -> acc + s) t.chan_bytes sizes) in
  List.iter
    (fun (path, size) ->
      if !total > t.max_total_bytes then begin
        (try Sys.remove path with Sys_error _ -> ());
        total := !total - size
      end)
    sizes

let write_line t json =
  let line = Json.to_string ~minify:true json ^ "\n" in
  let len = String.length line in
  if t.chan_bytes > 0 && t.chan_bytes + len > t.max_segment_bytes then begin
    rotate_locked t;
    retain_locked t
  end;
  let ch = active_chan t in
  output_string ch line;
  flush ch;
  t.chan_bytes <- t.chan_bytes + len

let append ?ts t fields =
  let ts = match ts with Some ts -> ts | None -> t.clock () in
  let fields = List.filter (fun (_, v) -> Float.is_finite v) fields in
  Mutex.protect t.mu (fun () -> write_line t (sample_to_json { ts; fields }))

let close t =
  Mutex.protect t.mu (fun () ->
      Option.iter close_out t.chan;
      t.chan <- None)

(* ---------- reader ---------- *)

let read_dir ?(since = neg_infinity) ?(until = infinity) ?(last = 0) dir =
  let ( let* ) = Result.bind in
  let parse path lineno line =
    let where = Printf.sprintf "%s:%d" (Filename.basename path) lineno in
    match Json.of_string line with
    | Error e -> Error (Printf.sprintf "%s: %s" where e)
    | Ok j ->
        Result.map_error (Printf.sprintf "%s: %s" where) (sample_of_json j)
  in
  let read_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ when not (Sys.file_exists path) ->
        Ok [] (* retention unlinked it after the listing *)
    | exception Sys_error msg -> Error msg
    | text ->
        (* a line is complete once its newline is written: text after
           the last newline is an append still in progress *)
        let rec loop lineno acc = function
          | [] | [ _ ] -> Ok (List.rev acc)
          | line :: rest when String.trim line = "" -> loop (lineno + 1) acc rest
          | line :: rest ->
              let* r = parse path lineno line in
              loop (lineno + 1) (r :: acc) rest
        in
        loop 1 [] (String.split_on_char '\n' text)
  in
  let rec walk = function
    | [] -> Ok []
    | path :: rest ->
        let* samples = read_file path in
        let* tail = walk rest in
        Ok (samples @ tail)
  in
  let* () =
    if Sys.file_exists dir && Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s: no such directory" dir)
  in
  let* all = walk (segment_files dir) in
  let kept =
    List.filter (fun s -> s.ts >= since && s.ts <= until) all
  in
  let drop = List.length kept - last in
  Ok (if last > 0 && drop > 0 then List.filteri (fun i _ -> i >= drop) kept
      else kept)
