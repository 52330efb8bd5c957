type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* NaN/infinity policy: JSON has no encoding for non-finite numbers, and
   silently printing them as [null] created a print→parse asymmetry
   (a [Float nan] came back as [Null]).  The producer is responsible:
   [Json.float] maps non-finite values to [Null] explicitly, and a
   non-finite [Float] reaching the printer is a bug, reported loudly. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg
      (Printf.sprintf
         "Json.to_string: non-finite float %h (sanitize with Json.float)" f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* shortest of %.6g/%.12g/%.17g that parses back exactly: compact
       for the common case, lossless for values that need the digits
       (epoch-second timestamps die at 6 significant digits) *)
    let s6 = Printf.sprintf "%.6g" f in
    if float_of_string s6 = f then s6
    else
      let s12 = Printf.sprintf "%.12g" f in
      if float_of_string s12 = f then s12 else Printf.sprintf "%.17g" f

let float f = if Float.is_nan f || Float.abs f = Float.infinity then Null else Float f

let rec write ~minify buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    write_seq ~minify buf indent '[' ']'
      (List.map (fun v -> (None, v)) items)
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    write_seq ~minify buf indent '{' '}'
      (List.map (fun (k, v) -> (Some k, v)) fields)

and write_seq ~minify buf indent open_ close_ items =
  let pad n = if not minify then Buffer.add_string buf (String.make n ' ') in
  let newline () = if not minify then Buffer.add_char buf '\n' in
  Buffer.add_char buf open_;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char buf ',';
      newline ();
      pad (indent + 2);
      (match key with
      | Some k ->
        escape_string buf k;
        Buffer.add_string buf (if minify then ":" else ": ")
      | None -> ());
      write ~minify buf (indent + 2) v)
    items;
  newline ();
  pad indent;
  Buffer.add_char buf close_

let to_string ?(minify = false) v =
  let buf = Buffer.create 1024 in
  write ~minify buf 0 v;
  Buffer.contents buf

let to_channel ?minify oc v = output_string oc (to_string ?minify v)

(* --- parsing --------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | Some _ | None -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error c (Printf.sprintf "expected %c, found %c" ch x)
  | None -> error c (Printf.sprintf "expected %c, found end of input" ch)

let expect_keyword c kw v =
  if
    c.pos + String.length kw <= String.length c.src
    && String.sub c.src c.pos (String.length kw) = kw
  then begin
    c.pos <- c.pos + String.length kw;
    v
  end
  else error c ("expected " ^ kw)

(* The four hex digits of a u escape: [c.pos] starts on the u and ends
   on the last digit. *)
let parse_hex4 c =
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  if c.pos + 4 >= String.length c.src then error c "truncated \\u escape";
  let hex = String.sub c.src (c.pos + 1) 4 in
  if not (String.for_all is_hex hex) then error c "bad \\u escape";
  c.pos <- c.pos + 4;
  int_of_string ("0x" ^ hex)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        (* a surrogate pair spells one code point past the BMP; half of
           one is not a character *)
        let hi = parse_hex4 c in
        let code =
          if
            hi land 0xFC00 = 0xD800
            && c.pos + 2 < String.length c.src
            && String.sub c.src (c.pos + 1) 2 = "\\u"
          then begin
            c.pos <- c.pos + 2;
            let lo = parse_hex4 c in
            if lo land 0xFC00 = 0xDC00 then
              0x10000 + ((hi land 0x3FF) lsl 10) + (lo land 0x3FF)
            else hi
          end
          else hi
        in
        if not (Uchar.is_valid code) then
          error c "lone surrogate in \\u escape";
        Buffer.add_utf_8_uchar buf (Uchar.of_int code)
      | Some x -> error c (Printf.sprintf "bad escape \\%c" x)
      | None -> error c "unterminated escape");
      advance c;
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* RFC 8259's number: an optional minus, then 0 or digits not starting
   with 0, then an optional fraction (a dot and digits) and an optional
   exponent (e or E, a sign, digits).  An integer literal past the int
   range decodes as a [Float]; one past the float range is an error,
   since [Float infinity] could not be printed. *)
let parse_number c =
  let start = c.pos in
  let accept p =
    match peek c with
    | Some ch when p ch ->
      advance c;
      true
    | _ -> false
  in
  let digit = function '0' .. '9' -> true | _ -> false in
  let digits () =
    if not (accept digit) then error c "bad number: digit expected";
    while accept digit do () done
  in
  ignore (accept (( = ) '-'));
  if not (accept (( = ) '0')) then digits ()
  else if accept digit then error c "bad number: leading zero";
  let frac = accept (( = ) '.') in
  if frac then digits ();
  let exp = accept (function 'e' | 'E' -> true | _ -> false) in
  if exp then begin
    ignore (accept (function '+' | '-' -> true | _ -> false));
    digits ()
  end;
  let text = String.sub c.src start (c.pos - start) in
  match if frac || exp then None else int_of_string_opt text with
  | Some i -> Int i
  | None ->
    let f = float_of_string text in
    if Float.is_finite f then Float f
    else error c ("number out of range " ^ text)

let max_depth = 512

(* [depth] counts the arrays and objects around the value, so nesting
   costs stack and time only up to [max_depth]. *)
let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some ('[' | '{') when depth >= max_depth ->
    error c (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some 'n' -> expect_keyword c "null" Null
  | Some 't' -> expect_keyword c "true" (Bool true)
  | Some 'f' -> expect_keyword c "false" (Bool false)
  | Some '"' -> String (parse_string_body c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else
      let rec items acc =
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> error c "expected , or ] in array"
      in
      List (items [])
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else
      let field () =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields (kv :: acc)
        | Some '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> error c "expected , or } in object"
      in
      Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected character %c" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing input after JSON value"
    else Ok v
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.of_string_exn: " ^ msg)

(* --- decoding ----------------------------------------------------------

   A decoder is plain code over the [_exn] converters; a failure is an
   [Invalid_argument] whose message grows a path prefix at each [get],
   [each] and [fields] it passes through, and [decoded] turns it into an
   [Error]. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let member_exn key v =
  match member key v with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "%S: missing" key)

let to_list_exn = function
  | List items -> items
  | _ -> invalid_arg "not a list"

let to_int_exn = function
  | Int i -> i
  | _ -> invalid_arg "not an int"

let to_float_exn = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> invalid_arg "not a number"

let to_string_exn = function
  | String s -> s
  | _ -> invalid_arg "not a string"

let to_bool_exn = function
  | Bool b -> b
  | _ -> invalid_arg "not a bool"

let obj = function
  | Obj _ as o -> o
  | _ -> invalid_arg "not an object"

let ok_exn = function
  | Ok v -> v
  | Error msg -> invalid_arg msg

(* [conv v], a failure prefixed with the key [v] was read under; an
   entry's index joins its list's key without a separator. *)
let under key conv v =
  try conv v
  with Invalid_argument msg ->
    invalid_arg
      (if String.starts_with ~prefix:"[" msg then key ^ msg
       else Printf.sprintf "%S: %s" key msg)

let get ?default conv key j =
  match (member key j, default) with
  | Some v, _ -> under key conv v
  | None, Some d -> d
  | None, None -> invalid_arg (Printf.sprintf "%S: missing" key)

let each conv v =
  List.mapi
    (fun i entry ->
      try conv entry
      with Invalid_argument msg ->
        invalid_arg (Printf.sprintf "[%d]: %s" i msg))
    (to_list_exn v)

let fields conv = function
  | Obj kvs -> List.map (fun (k, v) -> under k (conv k) v) kvs
  | _ -> invalid_arg "not an object"

let decoded f j = try Ok (f j) with Invalid_argument msg -> Error msg
