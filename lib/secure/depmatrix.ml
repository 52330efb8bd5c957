module Pipeline = Levioso_uarch.Pipeline
module Slot_mask = Levioso_uarch.Slot_mask

(* Per-slot arrays are indexed [seq land mask]; table row [mask + 1] is
   the root set.  Every in-flight row younger than [youngest] has bound
   -1: decode runs in seq order and a squash only removes rows. *)
type t = {
  pipe : Pipeline.t;
  budget : int;
  mask : int;
  rows : Slot_mask.t;
  over : bool array;
  bound : int array;  (* youngest seq the row may name, -1 = empty *)
  count : int array;  (* at least the row's population *)
  in_bound : int array;  (* youngest seq a producer row may name *)
  in_over : int array;  (* youngest overflowed producer *)
  mutable youngest : int;
  mutable roots : int;  (* the root set's population *)
  mutable roots_bound : int;
}

let create pipe ~budget =
  let slots = Pipeline.arena_size pipe in
  let ints v = Array.make slots v in
  { pipe; budget; mask = slots - 1; rows = Slot_mask.create ~rows:(slots + 1) ~bits:slots;
    over = Array.make slots false; bound = ints (-1); count = ints 0; in_bound = ints (-1);
    in_over = ints (-1); youngest = -1; roots = 0; roots_bound = -1 }

(* [upper] bounds the row's population from above, so the popcount runs
   only when it exceeds the budget; [b] bounds the seqs the row names. *)
let decode t ~seq ~roots ~data ~after ~own =
  let r = seq land t.mask in
  let upper = ref 0 and b = ref (-1) in
  if roots && t.roots > 0 then begin
    Slot_mask.copy t.rows ~dst:r ~src:(t.mask + 1);
    upper := t.roots;
    b := t.roots_bound
  end
  else Slot_mask.clear t.rows r;
  let pb = ref (-1) and po = ref (-1) in
  (* producers captured at rename are still in flight at decode *)
  if data then
    for i = 0 to Pipeline.max_operands - 1 do
      let p = Pipeline.operand_producer t.pipe seq i in
      if p >= 0 then begin
        let ps = p land t.mask in
        if t.over.(ps) then po := Int.max !po p
        else if t.bound.(ps) >= 0 then begin
          Slot_mask.union t.rows ~dst:r ~src:ps;
          upper := !upper + t.count.(ps);
          pb := Int.max !pb t.bound.(ps)
        end
      end
    done;
  t.in_bound.(r) <- !pb;
  t.in_over.(r) <- !po;
  b := Int.max !b !pb;
  if !b <= after then begin
    if !upper > 0 then Slot_mask.clear t.rows r;
    upper := 0;
    b := -1
  end
  else if after >= 0 then
    Slot_mask.inter_range t.rows r ~lo:((after + 1) land t.mask) ~len:(seq - after - 1);
  if own then begin
    Slot_mask.add t.rows r r;
    incr upper;
    b := seq
  end;
  let n = if !upper > t.budget then Slot_mask.cardinal t.rows r else !upper in
  let o = !po >= 0 || n > t.budget in
  t.over.(r) <- o;
  if o then Slot_mask.clear t.rows r;
  if o || n = 0 then t.bound.(r) <- -1
  else begin
    t.bound.(r) <- !b;
    t.count.(r) <- n;
    t.youngest <- seq
  end

let producer_bound t ~seq = t.in_bound.(seq land t.mask)
let producer_overflow t ~seq = t.in_over.(seq land t.mask)
let overflowed t ~seq = t.over.(seq land t.mask)

let is_empty t ~seq =
  let r = seq land t.mask in
  t.bound.(r) < 0 || Slot_mask.is_empty t.rows r

let mem t ~seq s = Slot_mask.mem t.rows (seq land t.mask) (s land t.mask)

let clear_column t ~seq =
  for s = seq + 1 to Int.min t.youngest (Pipeline.next_seq t.pipe - 1) do
    let r = s land t.mask in
    if t.bound.(r) >= seq then Slot_mask.remove t.rows r (seq land t.mask)
  done

let is_root t ~seq = Slot_mask.mem t.rows (t.mask + 1) (seq land t.mask)

let add_root t ~seq =
  Slot_mask.add t.rows (t.mask + 1) (seq land t.mask);
  t.roots <- t.roots + 1;
  t.roots_bound <- seq

let remove_root t ~seq =
  Slot_mask.remove t.rows (t.mask + 1) (seq land t.mask);
  t.roots <- t.roots - 1;
  if t.roots = 0 then t.roots_bound <- -1
