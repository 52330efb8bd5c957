(** A fixed-capacity ring buffer: the last [capacity] values pushed,
    oldest first.  Backs the flight recorder's sample and record rings
    ({!Flight}), the audit layer's raw-event window ({!Audit}) and the
    serve latency windows ({!Span.Window}).  Each caller decides what
    an out-of-range capacity means before calling {!create}.

    Not used by [Levioso_uarch.Pipeline]'s recent-event window: that
    one is a flat [int array] so recording an event on the simulator's
    hot path allocates nothing. *)

type 'a t

val create : int -> 'a t
(** @raise Invalid_argument if the capacity is not positive. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Number of elements currently held ([<= capacity]). *)

val pushed : 'a t -> int
(** Total number of pushes ever, including overwritten ones. *)

val push : 'a t -> 'a -> unit
(** Appends, overwriting the oldest element when full. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
