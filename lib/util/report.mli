(** Text rendering of the tables and figures regenerated by the benchmark
    harness.  Tables are aligned ASCII grids; figures are horizontal bar
    charts, which is enough to read off the shape the paper reports. *)

val table : header:string list -> rows:string list list -> string
(** Render an aligned table.  Every row must have the same arity as
    [header]. *)

val bar_chart :
  ?width:int -> title:string -> unit -> (string * float) list -> string
(** [bar_chart ~title () series] renders one horizontal bar per
    [(label, value)] pair, scaled so the largest value spans [width]
    characters (default 50).  Values must be non-negative. *)

val grouped_bars :
  ?width:int ->
  title:string ->
  group_labels:string list ->
  series:(string * float list) list ->
  unit ->
  string
(** Grouped bar chart: each series has one value per group label (e.g. one
    normalized-time bar per defense, grouped by workload). *)

val section : string -> string
(** A banner separating experiments in the harness output. *)
