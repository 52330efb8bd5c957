(** The file-system helpers of every on-disk store: {!Tsdb}, {!Monitor},
    the run cache and the fuzz corpus. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents ([0o755]).
    @raise Sys_error ["<dir>: <reason>"] naming the first directory
    that could not be created. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] writes through a temp file beside [path]
    named [<path>.<pid>.<n>.tmp], unique per call, then renames it over
    [path], so a reader never sees a torn file.  If [write] raises, the
    temp file is removed.  A temp file that cannot be created raises
    [Sys_error "<path>: <reason>"], naming [path], not the temp file. *)
