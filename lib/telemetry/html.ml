let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pf = Printf.bprintf

let attrs attributes =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (esc v)) attributes)

let class_attr cls = Option.fold ~none:[] ~some:(fun c -> [ ("class", c) ]) cls

(* [<name a="v"...>body</name>], [body] being markup already *)
let tag name attributes body =
  Printf.sprintf "<%s%s>%s</%s>" name (attrs attributes) body name

let line b markup =
  Buffer.add_string b markup;
  Buffer.add_char b '\n'

let heading b n text = line b (tag (Printf.sprintf "h%d" n) [] (esc text))

let page ~title ~css body =
  let b = Buffer.create 16384 in
  line b "<!DOCTYPE html>";
  line b "<html><head><meta charset=\"utf-8\">";
  line b (tag "title" [] (esc title));
  line b (tag "style" [] css);
  line b "</head><body>";
  heading b 1 title;
  body b;
  line b "</body></html>";
  Buffer.contents b

let para b ?cls markup = line b (tag "p" (class_attr cls) markup)

let svg b ?cls ~width ~height body =
  let cls = Option.fold ~none:"chart" ~some:(( ^ ) "chart ") cls in
  pf b "<svg%s>\n"
    (attrs
       [ ("class", cls); ("width", string_of_int width);
         ("height", string_of_int height);
         ("viewBox", Printf.sprintf "0 0 %d %d" width height) ]);
  body ();
  line b "</svg>"

let el b ?title ?text ?markup name attributes =
  match (title, text, markup) with
  | Some t, _, _ -> line b (tag name attributes (tag "title" [] (esc t)))
  | None, Some t, _ -> line b (tag name attributes (esc t))
  | None, None, Some m -> line b (tag name attributes m)
  | None, None, None -> pf b "<%s%s/>\n" name (attrs attributes)

let text b ?anchor cls x y body =
  el b "text" ~text:body
    ([ ("x", string_of_int x); ("y", string_of_int y); ("class", cls) ]
    @ Option.fold ~none:[] ~some:(fun a -> [ ("text-anchor", a) ]) anchor)

let inline name ?cls text = tag name (class_attr cls) (esc text)

let legend_css =
  ".legend{font-size:.85em}.swatch{display:inline-block;width:.9em;\
   height:.9em;margin:0 .3em 0 .9em;vertical-align:-.1em}"

let legend b ?(one_line = false) items =
  let swatch (color, label) =
    tag "span" [ ("class", "swatch"); ("style", "background:" ^ color) ] ""
    ^ esc label
  in
  let items = List.map swatch items in
  para b ~cls:"legend"
    (if one_line then String.concat " " items
     else String.concat "" (List.map (fun s -> s ^ " \n") items))

type cell = string

let td text = tag "td" [] (esc text)

let table b header rows =
  let row cells = line b (tag "tr" [] (String.concat "" cells)) in
  Buffer.add_string b "<table>";
  row (List.map (fun h -> tag "th" [] (esc h)) header);
  List.iter row rows;
  line b "</table>"
