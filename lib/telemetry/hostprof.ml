type span = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

let zero =
  {
    wall_s = 0.;
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    top_heap_words = 0;
  }

(* The word counts come from [Gc.counters], which on OCaml 5 reads this
   domain's own counters (minor words from the live allocation pointer,
   so short spans still see their allocation); quick_stat's
   promoted/major words also take in other domains' allocation.  A minor
   collection on each side of the span, outside its clock, flushes the
   young generation, so the words promoted inside the span are exactly
   the span's own survivors and [minor + major - promoted] is the span's
   allocation, whatever ran before it or beside it. *)
let measure f =
  let g0 = Gc.quick_stat () in
  Gc.minor ();
  let m0, p0, j0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  Gc.minor ();
  let m1, p1, j1 = Gc.counters () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      wall_s = t1 -. t0;
      minor_words = m1 -. m0;
      promoted_words = p1 -. p0;
      major_words = j1 -. j0;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_words = g1.Gc.top_heap_words;
    } )

let add a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    top_heap_words = max a.top_heap_words b.top_heap_words;
  }

let alloc_words s = s.minor_words +. s.major_words -. s.promoted_words

let to_json s =
  Json.Obj
    [
      ("wall_s", Json.float s.wall_s);
      ("minor_words", Json.float s.minor_words);
      ("promoted_words", Json.float s.promoted_words);
      ("major_words", Json.float s.major_words);
      ("minor_collections", Json.Int s.minor_collections);
      ("major_collections", Json.Int s.major_collections);
      ("top_heap_words", Json.Int s.top_heap_words);
    ]

let phases_to_json phases =
  let total = List.fold_left (fun acc (_, s) -> add acc s) zero phases in
  Json.Obj
    [
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, to_json s)) phases));
      ("total", to_json total);
    ]
