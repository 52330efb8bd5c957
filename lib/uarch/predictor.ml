type kind =
  | Always_taken
  | Bimodal of int array  (* 2-bit saturating counters *)
  | Gshare of int array
  | Tage of Tage.t

type t = {
  kind : kind;
  mask : int;  (* table index mask *)
  history_mask : int;  (* global history register width *)
  mutable history : int;  (* speculative global history *)
}

type snapshot = int

let create (config : Config.t) =
  let size = 1 lsl config.Config.predictor_bits in
  let mask = size - 1 in
  let kind =
    match config.Config.predictor with
    | Config.Always_taken -> Always_taken
    | Config.Bimodal -> Bimodal (Array.make size 2)
    | Config.Gshare -> Gshare (Array.make size 2)
    | Config.Tage -> Tage (Tage.create ~table_bits:(config.Config.predictor_bits - 2))
  in
  { kind; mask; history_mask = (1 lsl 62) - 1; history = 0 }

let index t ~pc ~history =
  match t.kind with
  | Always_taken | Bimodal _ | Tage _ -> pc land t.mask
  | Gshare _ -> (pc lxor history) land t.mask

let shift t dir =
  t.history <- ((t.history lsl 1) lor (if dir then 1 else 0)) land t.history_mask

let predict t ~pc =
  let dir =
    match t.kind with
    | Always_taken -> true
    | Bimodal table -> table.(index t ~pc ~history:0) >= 2
    | Gshare table -> table.(index t ~pc ~history:t.history) >= 2
    | Tage tage -> Tage.predict tage ~pc ~history:t.history
  in
  shift t dir;
  dir

let bump table i taken =
  if taken then table.(i) <- Int.min 3 (table.(i) + 1)
  else table.(i) <- Int.max 0 (table.(i) - 1)

let update t ~pc ~history ~taken =
  match t.kind with
  | Always_taken -> ()
  | Bimodal table -> bump table (index t ~pc ~history:0) taken
  | Gshare table -> bump table (index t ~pc ~history) taken
  | Tage tage -> Tage.update tage ~pc ~history ~taken

let snapshot t = t.history

let restore t s = t.history <- s

let force_history t ~taken = shift t taken

(* What snapshot / predict / update / restore-on-mispredict /
   force_history computes for a committed branch: the entry at the
   pre-branch history trains, and the history ends up shifted by the
   real direction either way.  [predict] touches only the history. *)
let train t ~pc ~taken =
  update t ~pc ~history:t.history ~taken;
  shift t taken

(* Full-state capture (history *and* tables) for checkpointed
   simulation — unlike [snapshot], which carries only the history for
   per-branch squash recovery. *)
type state =
  | S_always of int  (* history *)
  | S_table of int * int array
  | S_tage of int * Tage.state

let save_state t =
  match t.kind with
  | Always_taken -> S_always t.history
  | Bimodal table | Gshare table -> S_table (t.history, Array.copy table)
  | Tage tage -> S_tage (t.history, Tage.save tage)

let restore_state t s =
  match (t.kind, s) with
  | Always_taken, S_always h -> t.history <- h
  | (Bimodal table | Gshare table), S_table (h, saved)
    when Array.length saved = Array.length table ->
    Array.blit saved 0 table 0 (Array.length table);
    t.history <- h
  | Tage tage, S_tage (h, saved) ->
    Tage.restore tage saved;
    t.history <- h
  | (Always_taken | Bimodal _ | Gshare _ | Tage _), _ ->
    invalid_arg "Predictor.restore_state: state from a different predictor"
