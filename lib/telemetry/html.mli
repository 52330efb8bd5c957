(** The one HTML/SVG writer: the matrix report
    ([Levioso_uarch.Html_report]) and the serve dashboard
    ([Levioso_uarch.Dashboard]) emit every tag through it, and keep only
    their geometry, colours and number formats.

    Both pages keep one contract: one HTML document with inline CSS and
    inline SVG, no scripts and no external references, so it opens from
    a file:// URL or an artifact store; and bytes that are a pure
    function of the input (callers print every number with a fixed
    format), so re-rendering is byte-identical and tests compare pages
    textually.  Every text, tooltip and attribute value is escaped here;
    only [markup] arguments are written as given. *)

val esc : string -> string
(** Escape the four HTML metacharacters: angle brackets, ampersand and
    double quote. *)

val page : title:string -> css:string -> (Buffer.t -> unit) -> string
(** A whole document: doctype, [<title>], [css] as the stylesheet, an
    [<h1>] with the title, then what the function writes. *)

val heading : Buffer.t -> int -> string -> unit
(** [heading b n text] writes [<hN>text</hN>]. *)

val para : Buffer.t -> ?cls:string -> string -> unit
(** A [<p>] of class [cls] holding markup: prose may carry [<code>]. *)

val svg :
  Buffer.t -> ?cls:string -> width:int -> height:int -> (unit -> unit) -> unit
(** One [<svg>] of class ["chart"] (plus [cls]) whose viewBox matches
    its size, holding what the function writes. *)

val el :
  Buffer.t ->
  ?title:string ->
  ?text:string ->
  ?markup:string ->
  string ->
  (string * string) list ->
  unit
(** [el b name attrs] writes one SVG element ([rect], [line], [text],
    [path], [circle], [polyline], [polygon]) on its own line, attributes
    in order: self-closing, or with the first given of a [<title>]
    tooltip, a text body, or a markup body. *)

val text : Buffer.t -> ?anchor:string -> string -> int -> int -> string -> unit
(** [text b cls x y s]: an {!el} [<text>] of class [cls] with its
    baseline at ([x], [y]) and its [text-anchor] set to [anchor]. *)

val inline : string -> ?cls:string -> string -> string
(** The markup of one inline element, such as a [<tspan>] in a body. *)

val legend : Buffer.t -> ?one_line:bool -> (string * string) list -> unit
(** A legend paragraph: a colour swatch and a label per
    [(colour, label)], each followed by a space and a newline, or joined
    by spaces when [one_line]. *)

val legend_css : string
(** The style rules of a {!legend}, for a page's stylesheet. *)

type cell

val td : string -> cell

val table : Buffer.t -> string list -> cell list list -> unit
(** [table b header rows]: a row of header cells, then the rows. *)
