type 'a t = { cap : int; slots : 'a option array; mutable pushes : int }

let create cap =
  if cap < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { cap; slots = Array.make cap None; pushes = 0 }

let capacity r = r.cap
let pushed r = r.pushes

let push r x =
  r.slots.(r.pushes mod r.cap) <- Some x;
  r.pushes <- r.pushes + 1

let to_list r =
  let n = min r.pushes r.cap in
  List.init n (fun i -> Option.get r.slots.((r.pushes - n + i) mod r.cap))
