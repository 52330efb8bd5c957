module Json = Levioso_telemetry.Json
module Files = Levioso_telemetry.Files

type t = { dir : string; stamp : string }

let code_stamp_memo =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unstamped")

let code_stamp () = Lazy.force code_stamp_memo

let config_key (config : Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string config []))

(* --- sharded layout ----------------------------------------------------

   Entries live under [dir/<shard>/<workload>__<policy>__<digest16>.json]
   where <shard> is the first two hex characters of the 16-character key
   digest, so concurrent clients spread their directory operations over
   256 subdirectories instead of contending on one. *)

let shard_chars = 2

let shard_of_key key16 = String.sub key16 0 shard_chars

let entry_key t ~config ~workload ~policy =
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00" [ config_key config; workload; policy; t.stamp ]))
  in
  String.sub key 0 16

(* The readable prefix is cosmetic (workload/policy names are [a-z0-9-]);
   the digest alone distinguishes entries. *)
let entry_name ~workload ~policy key16 =
  Printf.sprintf "%s__%s__%s.json" workload policy key16

(* [Some digest16] for names of the entry shape. *)
let key_of_entry_name name =
  if not (Filename.check_suffix name ".json") then None
  else
    let stem = Filename.chop_suffix name ".json" in
    let n = String.length stem in
    if n < 18 then None
    else
      let key = String.sub stem (n - 16) 16 in
      let sep = String.sub stem (n - 18) 2 in
      let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
      if sep = "__" && String.for_all is_hex key then Some key else None

let create ?stamp ~dir () =
  let stamp =
    match stamp with
    | Some s -> s
    | None -> code_stamp ()
  in
  { dir; stamp }

let dir t = t.dir

let path t ~config ~workload ~policy =
  let key = entry_key t ~config ~workload ~policy in
  Filename.concat
    (Filename.concat t.dir (shard_of_key key))
    (entry_name ~workload ~policy key)

let read_entry file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
    match Json.of_string contents with
    | Ok j -> Some j
    | Error _ -> None)

let find t ~config ~workload ~policy =
  read_entry (path t ~config ~workload ~policy)

(* Every store writes through [Files.write_atomic]'s unique temp file,
   so two writers racing on the same key each publish a complete entry
   (last rename wins) and a concurrent reader only ever opens a fully
   written file. *)
let store t ~config ~workload ~policy summary =
  let file = path t ~config ~workload ~policy in
  Files.mkdir_p (Filename.dirname file);
  Files.write_atomic file (fun oc ->
      Json.to_channel oc summary;
      output_char oc '\n')

(* --- hygiene ---------------------------------------------------------- *)

let is_shard_dir dir name =
  String.length name = shard_chars
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       name
  && Sys.is_directory (Filename.concat dir name)

let prune ?now t ~max_age_days =
  let now = match now with Some n -> n | None -> Unix.time () in
  let cutoff = now -. (float_of_int (max 0 max_age_days) *. 86400.) in
  let removed = ref 0 in
  let consider file =
    let is_entry = key_of_entry_name (Filename.basename file) <> None in
    (* a .tmp older than the horizon is debris from a killed writer *)
    let is_debris = Filename.check_suffix file ".tmp" in
    if is_entry || is_debris then
      match Unix.stat file with
      | exception Unix.Unix_error _ -> ()
      | st ->
        if st.Unix.st_mtime < cutoff then (
          try
            Sys.remove file;
            if is_entry then incr removed
          with Sys_error _ -> ())
  in
  let names dir = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.iter
    (fun n ->
      if is_shard_dir t.dir n then begin
        let shard = Filename.concat t.dir n in
        Array.iter (fun f -> consider (Filename.concat shard f)) (names shard);
        (* drop shards emptied by the sweep; losing the race to a
           concurrent writer is fine (rmdir fails, the shard stays) *)
        try Unix.rmdir shard with Unix.Unix_error _ -> ()
      end)
    (names t.dir);
  !removed
