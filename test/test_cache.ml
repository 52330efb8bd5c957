module Config = Levioso_uarch.Config
module Cache = Levioso_uarch.Cache

let geometry = { Config.sets = 4; ways = 2; line_words = 8; hit_latency = 3 }

let test_miss_then_hit () =
  let c = Cache.create geometry in
  Alcotest.(check bool) "cold miss" false (Cache.lookup c 100);
  Cache.fill c 100;
  Alcotest.(check bool) "hit after fill" true (Cache.lookup c 100)

let test_same_line_hits () =
  let c = Cache.create geometry in
  Cache.fill c 64;
  (* words 64..71 share the line *)
  Alcotest.(check bool) "same line" true (Cache.lookup c 71);
  Alcotest.(check bool) "next line" false (Cache.lookup c 72)

let test_lru_eviction () =
  let c = Cache.create geometry in
  (* Three lines mapping to the same set (set = line mod 4): lines 0, 4, 8
     are addresses 0, 256, 512 with 8-word lines and 4 sets. *)
  Cache.fill c 0;
  Cache.fill c 256;
  ignore (Cache.lookup c 0);
  (* 0 is now MRU; filling 512 evicts 256. *)
  Cache.fill c 512;
  Alcotest.(check bool) "kept MRU" true (Cache.probe c 0);
  Alcotest.(check bool) "evicted LRU" false (Cache.probe c 256);
  Alcotest.(check bool) "new present" true (Cache.probe c 512)

let test_invalidate () =
  let c = Cache.create geometry in
  Cache.fill c 40;
  Cache.invalidate c 40;
  Alcotest.(check bool) "gone" false (Cache.probe c 40)

let test_probe_no_side_effect () =
  let c = Cache.create geometry in
  Cache.fill c 0;
  Cache.fill c 256;
  (* probe must not refresh LRU: 0 stays LRU and gets evicted. *)
  ignore (Cache.probe c 0);
  Cache.fill c 512;
  Alcotest.(check bool) "0 evicted despite probe" false (Cache.probe c 0)

let test_reset () =
  let c = Cache.create geometry in
  Cache.fill c 8;
  Cache.reset c;
  Alcotest.(check bool) "empty" false (Cache.probe c 8)

let hierarchy () = Cache.Hierarchy.create Config.default

let test_hierarchy_latencies () =
  let h = hierarchy () in
  let lat1, lvl1 = Cache.Hierarchy.load h 1000 in
  Alcotest.(check bool) "first access from memory" true (lvl1 = Cache.Hierarchy.Memory);
  Alcotest.(check int) "memory latency" Config.default.Config.memory_latency lat1;
  let lat2, lvl2 = Cache.Hierarchy.load h 1000 in
  Alcotest.(check bool) "second from L1" true (lvl2 = Cache.Hierarchy.L1);
  Alcotest.(check int) "l1 latency" Config.default.Config.l1.Config.hit_latency lat2

let test_hierarchy_l2_backs_l1 () =
  let h = hierarchy () in
  ignore (Cache.Hierarchy.load h 2000);
  Cache.invalidate (Cache.Hierarchy.l1 h) 2000;
  let _, lvl = Cache.Hierarchy.load h 2000 in
  Alcotest.(check bool) "served by L2" true (lvl = Cache.Hierarchy.L2)

let test_flush_evicts_everywhere () =
  let h = hierarchy () in
  ignore (Cache.Hierarchy.load h 3000);
  Cache.Hierarchy.flush h 3000;
  Alcotest.(check bool) "miss after flush" true
    (Cache.Hierarchy.probe h 3000 = Cache.Hierarchy.Memory)

let test_load_latency_oracle_matches () =
  let h = hierarchy () in
  ignore (Cache.Hierarchy.load h 4096);
  Alcotest.(check int) "oracle says l1"
    Config.default.Config.l1.Config.hit_latency
    (Cache.Hierarchy.load_latency h 4096);
  Alcotest.(check bool) "oracle did not mutate" true
    (Cache.Hierarchy.probe h 4096 = Cache.Hierarchy.L1)

let test_stats_counting () =
  let h = hierarchy () in
  ignore (Cache.Hierarchy.load h 0);
  ignore (Cache.Hierarchy.load h 0);
  ignore (Cache.Hierarchy.load h 8192);
  let get k = List.assoc k (Cache.Hierarchy.stats h) in
  Alcotest.(check int) "l1 hits" 1 (get "l1_hits");
  Alcotest.(check int) "l1 misses" 2 (get "l1_misses");
  Alcotest.(check int) "l2 misses" 2 (get "l2_misses")

let test_store_commit_allocates () =
  let h = hierarchy () in
  Cache.Hierarchy.store_commit h 5000;
  Alcotest.(check bool) "in L1 after store" true
    (Cache.Hierarchy.probe h 5000 = Cache.Hierarchy.L1)

(* Lines are found by shifting, so the geometry must be a power of two
   in both dimensions; 16-word lines put words 0..15 on one line. *)
let test_geometry_powers_of_two () =
  Alcotest.check_raises "3-word lines"
    (Invalid_argument "Cache.create: 4 sets of 3-word lines: not powers of two")
    (fun () -> ignore (Cache.create { geometry with Config.line_words = 3 }));
  Alcotest.check_raises "6 sets"
    (Invalid_argument "Cache.create: 6 sets of 8-word lines: not powers of two")
    (fun () -> ignore (Cache.create { geometry with Config.sets = 6 }));
  let c = Cache.create { geometry with Config.line_words = 16 } in
  Cache.fill c 0;
  Alcotest.(check bool) "word 15 shares line 0" true (Cache.probe c 15);
  Alcotest.(check bool) "word 16 does not" false (Cache.probe c 16)

let suite =
  ( "cache",
    [
      Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
      Alcotest.test_case "same line hits" `Quick test_same_line_hits;
      Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
      Alcotest.test_case "invalidate" `Quick test_invalidate;
      Alcotest.test_case "probe no side effect" `Quick test_probe_no_side_effect;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
      Alcotest.test_case "l2 backs l1" `Quick test_hierarchy_l2_backs_l1;
      Alcotest.test_case "flush evicts" `Quick test_flush_evicts_everywhere;
      Alcotest.test_case "latency oracle" `Quick test_load_latency_oracle_matches;
      Alcotest.test_case "stats counting" `Quick test_stats_counting;
      Alcotest.test_case "store commit allocates" `Quick test_store_commit_allocates;
      Alcotest.test_case "geometry powers of two" `Quick test_geometry_powers_of_two;
    ] )
