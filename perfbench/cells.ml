(* The benchmark's inputs and their correctness references.

   - quick cells: the 87 default-config cells of
     bench/history/baseline-quick.json, checked against its cycles;
   - stream-xl: the exact full-detail cycles of every policy, kept in
     perfbench/data/refs.json, against which sampled estimates are
     judged. *)

module Config = Levioso_uarch.Config
module Sampler = Levioso_uarch.Sampler
module Json = Levioso_telemetry.Json
module Workload = Levioso_workload.Workload
module Registry = Levioso_core.Registry
module Catalog = Levioso_serve.Catalog

type t = {
  config : Config.t;
  workload : Workload.t;
  policy : string;
  cycles : int;  (** reference cycles *)
}

let name c = c.workload.Workload.name ^ "/" ^ c.policy
let baseline_path = Filename.concat "bench" (Filename.concat "history" "baseline-quick.json")
let refs_path = Filename.concat "perfbench" (Filename.concat "data" "refs.json")
let sample_spec = { Sampler.interval = 5000; warmup = 2000; period = 20 }
let xl_name = "stream-xl"

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> failwith ("cannot read " ^ msg)
  | s -> (
    match Json.of_string s with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))

let str k j = Json.to_string_exn (Json.member_exn k j)
let int k j = Json.to_int_exn (Json.member_exn k j)

let quick () =
  let doc = read_json baseline_path in
  let entries = Json.to_list_exn (Json.member_exn "entries" doc) in
  let entry =
    match List.find_opt (fun e -> str "label" e = "baseline") entries with
    | Some e -> e
    | None -> failwith (baseline_path ^ ": no baseline entry")
  in
  List.map
    (fun c ->
      {
        config = Config.default;
        workload = Catalog.find_workload_exn (str "workload" c);
        policy = str "policy" c;
        cycles = int "cycles" c;
      })
    (Json.to_list_exn (Json.member_exn "cells" entry))

(* stream-xl under every policy; [cycles] is the exact full-detail
   count the sampled estimate is judged against. *)
let stream_xl () =
  let exact = Json.member_exn "stream_xl" (read_json refs_path) in
  let workload = Catalog.find_workload_exn xl_name in
  List.map
    (fun policy ->
      {
        config = Config.default;
        workload;
        policy;
        cycles = int policy exact;
      })
    Registry.names

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* A seeded order that keeps the work profile: cells sorted by reference
   cycles, longest first, shuffled only within consecutive groups of
   [group], so every seed loads the pool alike. *)
let strata rng ~group cells =
  let sorted = List.stable_sort (fun a b -> compare b.cycles a.cycles) cells in
  let rec chunks = function
    | [] -> []
    | l ->
      let g = List.filteri (fun i _ -> i < group) l in
      let rest = List.filteri (fun i _ -> i >= group) l in
      shuffle rng g :: chunks rest
  in
  List.concat (chunks sorted)

let lev_sources =
  List.map
    (fun n -> (n, Filename.concat "perfbench" (Filename.concat "data" (Filename.concat "lev" (n ^ ".lev")))))
    [ "lev-primes"; "lev-crc"; "lev-nbody"; "lev-bubble" ]
