(* Tags with LRU ordering per set, kept in one flat int array:
   [data.(set * ways + i)] is the i-th most-recently-used line of [set]
   (-1 = empty way).  Flat storage keeps lookup/fill allocation-free on
   the pipeline's per-load hot path (the previous int-list sets consed a
   fresh list per access). *)

type t = {
  geometry : Config.cache_geometry;
  ways : int;
  line_shift : int;  (* log2 line_words *)
  data : int array;  (* sets * ways, MRU-first line addresses, -1 empty *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create geometry =
  let open Config in
  if not (is_pow2 geometry.sets && is_pow2 geometry.line_words) then
    invalid_arg
      (Printf.sprintf "Cache.create: %d sets of %d-word lines: not powers of two"
         geometry.sets geometry.line_words);
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  {
    geometry;
    ways = geometry.ways;
    line_shift = log2 geometry.line_words;
    data = Array.make (geometry.sets * geometry.ways) (-1);
  }

(* Addresses are masked to the memory size, so never negative: the
   shift equals the division. *)
let line_of t addr = addr lsr t.line_shift

let set_of t line = line land (t.geometry.Config.sets - 1)

let find_way t base line =
  let i = ref 0 in
  while !i < t.ways && t.data.(base + !i) <> line do
    incr i
  done;
  if !i < t.ways then !i else -1

let move_to_front t base i line =
  for k = i downto 1 do
    t.data.(base + k) <- t.data.(base + k - 1)
  done;
  t.data.(base) <- line

let lookup t addr =
  let line = line_of t addr in
  let base = set_of t line * t.ways in
  let i = find_way t base line in
  if i < 0 then false
  else begin
    move_to_front t base i line;
    true
  end

let fill t addr =
  let line = line_of t addr in
  let base = set_of t line * t.ways in
  let i = find_way t base line in
  if i >= 0 then move_to_front t base i line
  else begin
    (* insert at MRU, shifting the rest right (LRU way falls off) *)
    move_to_front t base (t.ways - 1) line
  end

let invalidate t addr =
  let line = line_of t addr in
  let base = set_of t line * t.ways in
  let i = find_way t base line in
  if i >= 0 then begin
    for k = i to t.ways - 2 do
      t.data.(base + k) <- t.data.(base + k + 1)
    done;
    t.data.(base + t.ways - 1) <- -1
  end

let probe t addr =
  let line = line_of t addr in
  find_way t (set_of t line * t.ways) line >= 0

let reset t = Array.fill t.data 0 (Array.length t.data) (-1)

type snapshot = int array

let snapshot t = Array.copy t.data

let restore t s =
  if Array.length s <> Array.length t.data then
    invalid_arg "Cache.restore: snapshot geometry mismatch";
  Array.blit s 0 t.data 0 (Array.length s)

module Hierarchy = struct
  type h = {
    l1 : t;
    l2 : t;
    l1_hit : int;
    l2_hit : int;
    mem_lat : int;
    mutable n_l1_hit : int;
    mutable n_l1_miss : int;
    mutable n_l2_hit : int;
    mutable n_l2_miss : int;
  }

  type level =
    | L1
    | L2
    | Memory

  let create (config : Config.t) =
    {
      l1 = create config.Config.l1;
      l2 = create config.Config.l2;
      l1_hit = config.Config.l1.Config.hit_latency;
      l2_hit = config.Config.l2.Config.hit_latency;
      mem_lat = config.Config.memory_latency;
      n_l1_hit = 0;
      n_l1_miss = 0;
      n_l2_hit = 0;
      n_l2_miss = 0;
    }

  (* Tuple-free load for the pipeline hot path: mutates exactly like
     [load] and returns only the serving level; the latency comes from
     [latency_of_level]. *)
  let load_level h addr =
    if lookup h.l1 addr then begin
      h.n_l1_hit <- h.n_l1_hit + 1;
      L1
    end
    else begin
      h.n_l1_miss <- h.n_l1_miss + 1;
      if lookup h.l2 addr then begin
        h.n_l2_hit <- h.n_l2_hit + 1;
        fill h.l1 addr;
        L2
      end
      else begin
        h.n_l2_miss <- h.n_l2_miss + 1;
        fill h.l2 addr;
        fill h.l1 addr;
        Memory
      end
    end

  let latency_of_level h = function
    | L1 -> h.l1_hit
    | L2 -> h.l2_hit
    | Memory -> h.mem_lat

  let load h addr =
    let level = load_level h addr in
    (latency_of_level h level, level)

  let prefetch h addr =
    fill h.l2 addr;
    fill h.l1 addr

  let store_commit h addr =
    fill h.l2 addr;
    fill h.l1 addr

  let flush h addr =
    invalidate h.l1 addr;
    invalidate h.l2 addr

  let probe h addr =
    if probe h.l1 addr then L1 else if probe h.l2 addr then L2 else Memory

  let load_latency h addr =
    match probe h addr with
    | L1 -> h.l1_hit
    | L2 -> h.l2_hit
    | Memory -> h.mem_lat

  let l1 h = h.l1

  type hsnapshot = {
    hs_l1 : snapshot;
    hs_l2 : snapshot;
  }

  let snapshot h = { hs_l1 = snapshot h.l1; hs_l2 = snapshot h.l2 }

  let restore h s =
    restore h.l1 s.hs_l1;
    restore h.l2 s.hs_l2

  let stats h =
    [
      ("l1_hits", h.n_l1_hit);
      ("l1_misses", h.n_l1_miss);
      ("l2_hits", h.n_l2_hit);
      ("l2_misses", h.n_l2_miss);
    ]
end
