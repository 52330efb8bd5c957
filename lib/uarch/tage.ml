let num_tables = 4
let history_lengths = [| 5; 11; 21; 42 |]
let tag_bits = 8

type entry = {
  mutable tag : int;
  mutable ctr : int;  (* 3-bit signed: 0..7, taken when >= 4 *)
  mutable useful : int;  (* 2-bit: 0..3 *)
}

type t = {
  base : int array;  (* 2-bit bimodal *)
  tables : entry array array;
  index_mask : int;
  base_mask : int;
  mutable use_alt_on_new : int;  (* 4-bit confidence counter *)
  mutable tick : int;  (* periodic usefulness decay *)
}

let create ~table_bits =
  let size = 1 lsl table_bits in
  {
    base = Array.make (2 * size) 2;
    tables =
      Array.init num_tables (fun _ ->
          Array.init size (fun _ -> { tag = -1; ctr = 4; useful = 0 }));
    index_mask = size - 1;
    base_mask = (2 * size) - 1;
    use_alt_on_new = 8;
    tick = 0;
  }

(* Fold [bits] low bits of the history down to [width] bits by xor-ing
   [width]-bit chunks. *)
let fold history ~bits ~width =
  let mask_chunk = (1 lsl width) - 1 in
  let rec go h remaining acc =
    if remaining <= 0 then acc
    else go (h lsr width) (remaining - width) (acc lxor (h land mask_chunk))
  in
  go (history land ((1 lsl bits) - 1)) bits 0

let index t i ~pc ~history =
  let h = fold history ~bits:history_lengths.(i) ~width:10 in
  (pc lxor (pc lsr 4) lxor h lxor (i * 0x9E37)) land t.index_mask

let tag_of i ~pc ~history =
  let h = fold history ~bits:history_lengths.(i) ~width:tag_bits in
  (pc lxor (pc lsr 7) lxor (h lsl 1) lxor i) land ((1 lsl tag_bits) - 1)

let base_index t pc = pc land t.base_mask

(* Longest-history hitting table, if any, with its index. *)
let provider t ~pc ~history =
  let rec scan i =
    if i < 0 then None
    else
      let idx = index t i ~pc ~history in
      if t.tables.(i).(idx).tag = tag_of i ~pc ~history then Some (i, idx)
      else scan (i - 1)
  in
  scan (num_tables - 1)

(* The next-longest hit below [limit], for the alternate prediction. *)
let alternate t ~pc ~history ~limit =
  let rec scan i =
    if i < 0 then None
    else
      let idx = index t i ~pc ~history in
      if t.tables.(i).(idx).tag = tag_of i ~pc ~history then Some (i, idx)
      else scan (i - 1)
  in
  scan (limit - 1)

let base_prediction t pc = t.base.(base_index t pc) >= 2

let weak e = e.ctr = 3 || e.ctr = 4

let predict t ~pc ~history =
  match provider t ~pc ~history with
  | None -> base_prediction t pc
  | Some (i, idx) ->
    let e = t.tables.(i).(idx) in
    (* newly-allocated (weak) entries may defer to the alternate while the
       use_alt confidence says so *)
    if weak e && e.useful = 0 && t.use_alt_on_new >= 8 then
      match alternate t ~pc ~history ~limit:i with
      | Some (j, jdx) -> t.tables.(j).(jdx).ctr >= 4
      | None -> base_prediction t pc
    else e.ctr >= 4

let bump_ctr e taken =
  if taken then e.ctr <- Int.min 7 (e.ctr + 1) else e.ctr <- Int.max 0 (e.ctr - 1)

let bump_base t pc taken =
  let i = base_index t pc in
  if taken then t.base.(i) <- Int.min 3 (t.base.(i) + 1)
  else t.base.(i) <- Int.max 0 (t.base.(i) - 1)

(* Allocate an entry in a randomly-chosen table with longer history than
   the provider, preferring a not-useful slot; on failure decay usefulness
   so future allocations succeed (the classic TAGE aging policy). *)
let allocate t ~pc ~history ~above ~taken =
  let tried = ref false in
  for i = above to num_tables - 1 do
    if not !tried then begin
      let idx = index t i ~pc ~history in
      let e = t.tables.(i).(idx) in
      if e.useful = 0 then begin
        e.tag <- tag_of i ~pc ~history;
        e.ctr <- (if taken then 4 else 3);
        tried := true
      end
    end
  done;
  if not !tried then begin
    t.tick <- t.tick + 1;
    if t.tick >= 64 then begin
      t.tick <- 0;
      Array.iter
        (fun table -> Array.iter (fun e -> e.useful <- Int.max 0 (e.useful - 1)) table)
        t.tables
    end
  end

(* Deep-copy state capture for checkpointed simulation: everything the
   tables learned, flattened ([num_tables * size] row-major). *)
type state = {
  s_base : int array;
  s_tags : int array;
  s_ctrs : int array;
  s_useful : int array;
  s_alt : int;
  s_tick : int;
}

let save t =
  let size = t.index_mask + 1 in
  let n = num_tables * size in
  let tags = Array.make n 0 and ctrs = Array.make n 0 and useful = Array.make n 0 in
  for i = 0 to num_tables - 1 do
    for j = 0 to size - 1 do
      let e = t.tables.(i).(j) in
      tags.((i * size) + j) <- e.tag;
      ctrs.((i * size) + j) <- e.ctr;
      useful.((i * size) + j) <- e.useful
    done
  done;
  {
    s_base = Array.copy t.base;
    s_tags = tags;
    s_ctrs = ctrs;
    s_useful = useful;
    s_alt = t.use_alt_on_new;
    s_tick = t.tick;
  }

let restore t s =
  let size = t.index_mask + 1 in
  if
    Array.length s.s_base <> Array.length t.base
    || Array.length s.s_tags <> num_tables * size
  then invalid_arg "Tage.restore: snapshot size mismatch";
  Array.blit s.s_base 0 t.base 0 (Array.length t.base);
  for i = 0 to num_tables - 1 do
    for j = 0 to size - 1 do
      let e = t.tables.(i).(j) in
      e.tag <- s.s_tags.((i * size) + j);
      e.ctr <- s.s_ctrs.((i * size) + j);
      e.useful <- s.s_useful.((i * size) + j)
    done
  done;
  t.use_alt_on_new <- s.s_alt;
  t.tick <- s.s_tick

let update t ~pc ~history ~taken =
  match provider t ~pc ~history with
  | None ->
    bump_base t pc taken;
    if base_prediction t pc <> taken then allocate t ~pc ~history ~above:0 ~taken
  | Some (i, idx) ->
    let e = t.tables.(i).(idx) in
    let provider_pred = e.ctr >= 4 in
    let alt_pred =
      match alternate t ~pc ~history ~limit:i with
      | Some (j, jdx) -> t.tables.(j).(jdx).ctr >= 4
      | None -> base_prediction t pc
    in
    (* usefulness: the provider proved better (or worse) than the alternate *)
    if provider_pred <> alt_pred then begin
      if provider_pred = taken then e.useful <- Int.min 3 (e.useful + 1)
      else e.useful <- Int.max 0 (e.useful - 1);
      (* track whether new entries should defer to the alternate *)
      if weak e then
        if alt_pred = taken then t.use_alt_on_new <- Int.min 15 (t.use_alt_on_new + 1)
        else t.use_alt_on_new <- Int.max 0 (t.use_alt_on_new - 1)
    end;
    bump_ctr e taken;
    if e.ctr >= 4 <> taken && provider_pred <> taken then
      allocate t ~pc ~history ~above:(i + 1) ~taken
