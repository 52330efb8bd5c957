module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser

type entry = {
  oracle : string;
  seed : int;
  verdict : string;
  detail : string;
  source : string option;
  leak : string option;
  program : Ir.program;
}

let default_dir = "fuzz/corpus"

let path_for ~dir entry =
  Filename.concat dir (Printf.sprintf "%s-seed%d.levir" entry.oracle entry.seed)

(* metadata must survive a comment line: no newlines *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let save ~dir entry =
  Levioso_telemetry.Files.mkdir_p dir;
  let path = path_for ~dir entry in
  let buf = Buffer.create 1024 in
  let meta key value = Buffer.add_string buf (Printf.sprintf "; %s: %s\n" key value) in
  Buffer.add_string buf "; levioso.fuzz reproduction\n";
  meta "oracle" entry.oracle;
  meta "seed" (string_of_int entry.seed);
  meta "verdict" entry.verdict;
  meta "detail" (one_line entry.detail);
  (match entry.source with
  | None -> ()
  | Some src ->
    String.split_on_char '\n' src
    |> List.iter (fun line -> meta "src" line));
  (match entry.leak with
  | None -> ()
  | Some chain ->
    String.split_on_char '\n' (String.trim chain)
    |> List.iter (fun line -> meta "leak" line));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Ir.program_to_string entry.program);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  path

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let meta = Hashtbl.create 8 in
  let src_lines = ref [] in
  let leak_lines = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.index_opt line ':' with
         | Some colon
           when String.length line > 2
                && line.[0] = ';'
                && (* "; key: value" *)
                colon > 2 ->
           let key = String.trim (String.sub line 1 (colon - 1)) in
           let value =
             let start = colon + 1 in
             let v = String.sub line start (String.length line - start) in
             if String.length v > 0 && v.[0] = ' ' then
               String.sub v 1 (String.length v - 1)
             else v
           in
           if key = "src" then src_lines := value :: !src_lines
           else if key = "leak" then leak_lines := value :: !leak_lines
           else if not (Hashtbl.mem meta key) then Hashtbl.add meta key value
         | _ -> ());
  let get key =
    match Hashtbl.find_opt meta key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing '; %s:' header" path key)
  in
  let ( let* ) = Result.bind in
  let* oracle = get "oracle" in
  let* seed_str = get "seed" in
  let* seed =
    match int_of_string_opt seed_str with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: bad seed %S" path seed_str)
  in
  let* verdict = get "verdict" in
  let detail = Option.value ~default:"" (Hashtbl.find_opt meta "detail") in
  let source =
    match !src_lines with
    | [] -> None
    | lines -> Some (String.concat "\n" (List.rev lines))
  in
  let leak =
    match !leak_lines with
    | [] -> None
    | lines -> Some (String.concat "\n" (List.rev lines))
  in
  let* program =
    match Parser.parse text with
    | Ok p -> Ok p
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  in
  Ok { oracle; seed; verdict; detail; source; leak; program }

let files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".levir")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  else []

let replay ~config entry =
  match Oracle.find entry.oracle with
  | None -> Error (Printf.sprintf "unknown oracle %S" entry.oracle)
  | Some oracle -> (
    let outcome = oracle.Oracle.run ~config ~seed:entry.seed in
    match (outcome.Oracle.verdict, entry.verdict) with
    | Oracle.Pass, "pass" -> Ok ()
    | Oracle.Fail _, "fail" -> Ok ()
    | Oracle.Pass, "fail" ->
      Error
        (Printf.sprintf
           "%s seed %d now passes — stale repro, prune or re-record"
           entry.oracle entry.seed)
    | Oracle.Fail f, "pass" ->
      Error
        (Printf.sprintf "%s seed %d regressed: %s" entry.oracle entry.seed
           f.Oracle.detail)
    | _, other ->
      Error (Printf.sprintf "unknown recorded verdict %S" other))
