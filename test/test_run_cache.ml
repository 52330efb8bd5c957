(* The bench result cache: round-trip, key sensitivity (config, names,
   code stamp), corruption tolerance, the sharded on-disk layout
   (shard subdirectories, racing writers, prune)
   and the Sim_stats JSON round-trip that cache replay leans on,
   through Summary.stats, the one decoder every summary reader uses. *)

module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Schema = Levioso_telemetry.Schema
module Workload = Levioso_workload.Workload
module Run_cache = Levioso_uarch.Run_cache
module Sim_stats = Levioso_uarch.Sim_stats
module Json = Levioso_telemetry.Json

(* [temp_file] hands out a unique name; the cache creates the directory
   itself on first store. *)
let fresh_dir () =
  let f = Filename.temp_file "levioso-run-cache" "" in
  Sys.remove f;
  f

let summary = Json.Obj [ ("stats", Json.Obj [ ("cycles", Json.Int 123) ]) ]

let find_cycles cache ~config ~workload ~policy =
  Option.map
    (fun j -> Json.to_string j)
    (Run_cache.find cache ~config ~workload ~policy)

let test_round_trip () =
  let cache = Run_cache.create ~stamp:"s1" ~dir:(fresh_dir ()) () in
  let config = Config.default in
  Alcotest.(check (option string))
    "miss before store" None
    (find_cycles cache ~config ~workload:"w" ~policy:"p");
  Run_cache.store cache ~config ~workload:"w" ~policy:"p" summary;
  Alcotest.(check (option string))
    "hit after store"
    (Some (Json.to_string summary))
    (find_cycles cache ~config ~workload:"w" ~policy:"p")

let test_key_sensitivity () =
  let dir = fresh_dir () in
  let cache = Run_cache.create ~stamp:"s1" ~dir () in
  let config = Config.default in
  Run_cache.store cache ~config ~workload:"w" ~policy:"p" summary;
  (* any config field change misses *)
  Alcotest.(check (option string))
    "config change invalidates" None
    (find_cycles cache
       ~config:{ config with Config.rob_size = 48 }
       ~workload:"w" ~policy:"p");
  Alcotest.(check bool)
    "config_key differs" false
    (Run_cache.config_key config
    = Run_cache.config_key { config with Config.depset_budget = 4 });
  (* so do workload and policy names *)
  Alcotest.(check (option string))
    "workload miss" None
    (find_cycles cache ~config ~workload:"w2" ~policy:"p");
  Alcotest.(check (option string))
    "policy miss" None
    (find_cycles cache ~config ~workload:"w" ~policy:"p2");
  (* and a different code-version stamp over the same directory *)
  let rebuilt = Run_cache.create ~stamp:"s2" ~dir () in
  Alcotest.(check (option string))
    "stamp change invalidates" None
    (find_cycles rebuilt ~config ~workload:"w" ~policy:"p")

let test_corrupt_entry_is_a_miss () =
  let cache = Run_cache.create ~stamp:"s1" ~dir:(fresh_dir ()) () in
  let config = Config.default in
  Run_cache.store cache ~config ~workload:"w" ~policy:"p" summary;
  let file = Run_cache.path cache ~config ~workload:"w" ~policy:"p" in
  let oc = open_out file in
  output_string oc "{ not json";
  close_out oc;
  Alcotest.(check (option string))
    "corrupt file treated as miss" None
    (find_cycles cache ~config ~workload:"w" ~policy:"p")

let test_sharded_layout () =
  let dir = fresh_dir () in
  let cache = Run_cache.create ~stamp:"s1" ~dir () in
  let config = Config.default in
  Run_cache.store cache ~config ~workload:"w" ~policy:"p" summary;
  let file = Run_cache.path cache ~config ~workload:"w" ~policy:"p" in
  Alcotest.(check bool) "entry lives at its sharded path" true
    (Sys.file_exists file);
  let shard = Filename.basename (Filename.dirname file) in
  Alcotest.(check int) "shard dir is a 2-char digest prefix" 2
    (String.length shard);
  Alcotest.(check bool) "shard dir is under the store root" true
    (Filename.dirname (Filename.dirname file) = dir);
  (* the shard name is the leading hex of the entry's own digest *)
  let name = Filename.basename file in
  let digest16 =
    String.sub name (String.length name - String.length ".json" - 16) 16
  in
  Alcotest.(check string) "prefix matches" (String.sub digest16 0 2) shard;
  Alcotest.(check bool) "no temp debris left behind" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir (Filename.dirname file)))

(* A number that overflows a float, as in a hand-edited entry, makes
   the entry unparsable: a miss to simulate again, never a value that
   cannot be printed back. *)
let test_overflowing_number_is_a_miss () =
  let cache = Run_cache.create ~stamp:"s1" ~dir:(fresh_dir ()) () in
  let config = Config.default in
  Run_cache.store cache ~config ~workload:"w" ~policy:"p" summary;
  let file = Run_cache.path cache ~config ~workload:"w" ~policy:"p" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc {|{"stats": {"cycles": 123, "ipc": 1e999}}|});
  Alcotest.(check (option string))
    "1e999 entry treated as miss" None
    (find_cycles cache ~config ~workload:"w" ~policy:"p")

(* Two writers racing on the same key: last rename wins, and a reader
   polling throughout only ever observes a complete entry (temp-file +
   atomic-rename invariant) — never a torn or partial write. *)
let test_racing_writers_atomicity () =
  let dir = fresh_dir () in
  let cache = Run_cache.create ~stamp:"s1" ~dir () in
  let config = Config.default in
  let big =
    (* large enough that a non-atomic write would be observable mid-copy *)
    Json.Obj
      [
        ("stats", Json.Obj [ ("cycles", Json.Int 123) ]);
        ( "pad",
          Json.List (List.init 2048 (fun i -> Json.Int i)) );
      ]
  in
  let expected = Json.to_string big in
  let writer () =
    for _ = 1 to 50 do
      Run_cache.store cache ~config ~workload:"w" ~policy:"p" big
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  let torn = ref 0 in
  for _ = 1 to 500 do
    (match find_cycles cache ~config ~workload:"w" ~policy:"p" with
    | Some s -> if s <> expected then incr torn
    | None -> ());
    Domain.cpu_relax ()
  done;
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no torn reads" 0 !torn;
  Alcotest.(check (option string))
    "final entry complete" (Some expected)
    (find_cycles cache ~config ~workload:"w" ~policy:"p");
  Alcotest.(check bool) "no temp debris after the race" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir
          (Filename.dirname
             (Run_cache.path cache ~config ~workload:"w" ~policy:"p"))))

let test_prune () =
  let dir = fresh_dir () in
  let cache = Run_cache.create ~stamp:"s1" ~dir () in
  let config = Config.default in
  Run_cache.store cache ~config ~workload:"old" ~policy:"p" summary;
  Run_cache.store cache ~config ~workload:"new" ~policy:"p" summary;
  (* back-date the old entry well past the cutoff *)
  let old_file = Run_cache.path cache ~config ~workload:"old" ~policy:"p" in
  let past = Unix.gettimeofday () -. (40.0 *. 86400.0) in
  Unix.utimes old_file past past;
  Alcotest.(check int) "one stale entry removed" 1
    (Run_cache.prune cache ~max_age_days:30);
  Alcotest.(check (option string))
    "stale entry gone" None
    (find_cycles cache ~config ~workload:"old" ~policy:"p");
  Alcotest.(check (option string))
    "fresh entry survives"
    (Some (Json.to_string summary))
    (find_cycles cache ~config ~workload:"new" ~policy:"p");
  Alcotest.(check int) "second prune is a no-op" 0
    (Run_cache.prune cache ~max_age_days:30);
  (* entries live only in shard directories: the root is not swept *)
  let stray = Filename.concat dir (Filename.basename old_file) in
  Out_channel.with_open_bin stray (fun oc -> output_string oc "{}");
  Unix.utimes stray past past;
  Alcotest.(check int) "a file at the root is not an entry" 0
    (Run_cache.prune cache ~max_age_days:30);
  Alcotest.(check bool) "and stays" true (Sys.file_exists stray)

let test_sim_stats_round_trip () =
  let s = Sim_stats.create () in
  s.Sim_stats.cycles <- 1000;
  s.Sim_stats.committed <- 750;
  s.Sim_stats.committed_loads <- 80;
  s.Sim_stats.committed_stores <- 20;
  s.Sim_stats.committed_branches <- 90;
  s.Sim_stats.committed_transmitters <- 81;
  s.Sim_stats.fetched <- 1200;
  s.Sim_stats.squashed <- 300;
  s.Sim_stats.mispredicts <- 33;
  s.Sim_stats.policy_stall_cycles <- 44;
  s.Sim_stats.transmit_stall_cycles <- 22;
  s.Sim_stats.restricted_committed <- 11;
  s.Sim_stats.restricted_transmitters <- 7;
  s.Sim_stats.wrong_path_executed_loads <- 13;
  Sim_stats.record_wrong_path_transmit s ~branch_pc:4 ~pc:9;
  s.Sim_stats.max_rob_occupancy <- 96;
  match Sim_stats.of_json (Sim_stats.to_json s) with
  | Error msg -> Alcotest.fail msg
  | Ok back ->
    (* the pair list is not serialized; every counter round-trips *)
    let expect = { s with Sim_stats.wrong_path_transmits = [] } in
    Alcotest.(check bool) "all counters round-trip" true (back = expect);
    Alcotest.(check int)
      "pair-list count survives" 1 back.Sim_stats.wrong_path_transmit_count

let test_sim_stats_rejects_garbage () =
  Alcotest.(check bool)
    "missing fields rejected" true
    (Result.is_error (Sim_stats.of_json (Json.Obj [ ("cycles", Json.Int 1) ])));
  Alcotest.(check bool)
    "non-object rejected" true
    (Result.is_error (Sim_stats.of_json (Json.String "nope")));
  let w = Levioso_workload.Suite.find_exn "compact" in
  let policy = Levioso_core.Registry.find_exn "levioso" in
  let pipe =
    Pipeline.create ~mem_init:w.Workload.mem_init Config.default ~policy
      w.Workload.program
  in
  Pipeline.run pipe;
  let exact = Summary.of_pipeline ~workload:"compact" ~policy:"levioso" pipe in
  (match Summary.stats exact with
  | Ok s ->
    Alcotest.(check bool)
      "exact summary decodes to Pipeline.stats" true
      (s = { (Pipeline.stats pipe) with Sim_stats.wrong_path_transmits = [] })
  | Error msg -> Alcotest.fail msg);
  let spec =
    match Sampler.parse "1000:500:4" with
    | Ok (Some sp) -> sp
    | _ -> Alcotest.fail "bad sample spec"
  in
  let r =
    Sampler.run ~mem_init:w.Workload.mem_init spec Config.default ~policy
      w.Workload.program
  in
  let detailed = r.Sampler.stats.Sim_stats.cycles in
  let sampled = Summary.of_sampled r in
  Alcotest.(check bool)
    "estimate differs from the detailed cycles" true
    (r.Sampler.estimated_cycles <> detailed);
  (match Summary.stats sampled with
  | Ok s ->
    Alcotest.(check int)
      "sampled cycles = estimated_cycles" r.Sampler.estimated_cycles
      s.Sim_stats.cycles;
    Alcotest.(check int)
      "other counters are the intervals'" r.Sampler.stats.Sim_stats.committed
      s.Sim_stats.committed
  | Error msg -> Alcotest.fail msg);
  let edit f = function
    | Json.Obj kvs -> Json.Obj (f kvs)
    | j -> j
  in
  let set k v =
    edit (List.map (fun (k', x) -> if k' = k then (k', v) else (k', x)))
  in
  let rejected what j =
    Alcotest.(check bool) what true (Result.is_error (Summary.stats j))
  in
  rejected "wrong schema_version"
    (set "schema_version" (Json.Int (Schema.version + 1)) exact);
  rejected "missing stats block" (edit (List.remove_assoc "stats") exact);
  rejected "garbage stats block" (set "stats" (Json.String "nope") exact);
  rejected "sampled block without an estimate"
    (set "sampled" (Json.Obj []) sampled)

let suite =
  ( "run_cache",
    [
      Alcotest.test_case "store/find round-trip" `Quick test_round_trip;
      Alcotest.test_case "config/name/stamp key sensitivity" `Quick
        test_key_sensitivity;
      Alcotest.test_case "corrupt entry is a miss" `Quick
        test_corrupt_entry_is_a_miss;
      Alcotest.test_case "sharded on-disk layout" `Quick test_sharded_layout;
      Alcotest.test_case "overflowing number is a miss" `Quick
        test_overflowing_number_is_a_miss;
      Alcotest.test_case "racing writers, atomic reads" `Quick
        test_racing_writers_atomicity;
      Alcotest.test_case "prune removes only stale entries" `Quick test_prune;
      Alcotest.test_case "Sim_stats JSON round-trip" `Quick
        test_sim_stats_round_trip;
      Alcotest.test_case "Sim_stats.of_json rejects garbage" `Quick
        test_sim_stats_rejects_garbage;
    ] )
