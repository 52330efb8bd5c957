(** A minimal JSON tree: enough to serialize every simulator report and to
    parse them back in tests.

    No external dependency — the toolchain image has no yojson.  Printing
    is deterministic (object fields keep insertion order) so golden tests
    can compare output textually. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float : float -> t
(** Producer-side sanitizer: [Float f] for finite [f], [Null] for
    NaN/±infinity.  JSON has no encoding for non-finite numbers; the
    policy here is to make the substitution explicit at the producer
    (use this constructor wherever a division might blow up) rather
    than silently at print time. *)

val to_string : ?minify:bool -> t -> string
(** [minify] defaults to [false]: two-space indented, newline-separated.
    Floats print with up to 6 significant decimals.
    @raise Invalid_argument on a non-finite [Float] — sanitize with
    {!float} at the producer.  Every tree built only from {!float} (and
    finite literals) round-trips through {!of_string} up to float
    formatting precision. *)

val to_channel : ?minify:bool -> out_channel -> t -> unit

val of_string : string -> (t, string) result
(** A small recursive-descent parser for the subset this module prints
    (all of JSON except unicode escapes beyond \uXXXX for BMP points).
    Numbers with a fraction or exponent parse as [Float], others as
    [Int].  A number that overflows to ±infinity (say [1e999]) is an
    error, so every parsed tree prints again.  Arrays and objects
    nested deeper than {!max_depth} are an error naming the offset of
    the first one too deep, so no input costs more than linear time. *)

val max_depth : int
(** 512: the deepest nesting of arrays and objects {!of_string}
    accepts. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

(** {1 Decoding}

    Every document the programs read back (run summaries, run-cache
    entries, wire frames, configs, tsdb records) is decoded with these.
    A decoder is written with the raising converters below and {!get};
    a failure raises [Invalid_argument] with a message naming the field
    and its path ([cells[2]: "config": "rob_size": not an int]), and
    {!decoded} at the entry point turns it into an [Error]. *)

val decoded : (t -> 'a) -> t -> ('a, string) result
(** [decoded f j] is [Ok (f j)], or [Error msg] when [f] raises
    [Invalid_argument msg]. *)

val get : ?default:'a -> (t -> 'a) -> string -> t -> 'a
(** [get conv key j] is field [key] of [j] through [conv], a failure of
    [conv] prefixed with the key.  [default] stands in for an absent
    field, never for a malformed one; without it an absent field fails
    as ["key": missing]. *)

val each : (t -> 'a) -> t -> 'a list
(** [conv] over a list's entries, a failure naming the entry by its
    index: [get (each conv) "cells"] fails as [cells[2]: …]. *)

val fields : (string -> t -> 'a) -> t -> 'a list
(** [conv key value] over an object's fields in document order, a
    failure naming the key. *)

val obj : t -> t
(** The value itself when it is an [Obj]. *)

val ok_exn : ('a, string) result -> 'a
(** The [Ok] value; an [Error msg] fails as [msg], for a decoder that
    reuses one returning a result. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val member_exn : string -> t -> t
val to_list_exn : t -> t list
val to_int_exn : t -> int
val to_float_exn : t -> float
(** [to_float_exn] accepts both [Int] and [Float]. *)

val to_string_exn : t -> string
val to_bool_exn : t -> bool
(** The converters raise [Invalid_argument] on a value of another
    type. *)
