type t = {
  mutable cycles : int;
  mutable committed : int;
  mutable committed_loads : int;
  mutable committed_stores : int;
  mutable committed_branches : int;
  mutable committed_transmitters : int;
  mutable fetched : int;
  mutable squashed : int;
  mutable mispredicts : int;
  mutable policy_stall_cycles : int;
  mutable transmit_stall_cycles : int;
  mutable restricted_committed : int;
  mutable restricted_transmitters : int;
  mutable wrong_path_executed_loads : int;
  mutable wrong_path_transmits : (int * int) list;
  mutable wrong_path_transmit_count : int;
  mutable wrong_path_transmits_dropped : int;
  mutable max_rob_occupancy : int;
}

let create () =
  {
    cycles = 0;
    committed = 0;
    committed_loads = 0;
    committed_stores = 0;
    committed_branches = 0;
    committed_transmitters = 0;
    fetched = 0;
    squashed = 0;
    mispredicts = 0;
    policy_stall_cycles = 0;
    transmit_stall_cycles = 0;
    restricted_committed = 0;
    restricted_transmitters = 0;
    wrong_path_executed_loads = 0;
    wrong_path_transmits = [];
    wrong_path_transmit_count = 0;
    wrong_path_transmits_dropped = 0;
    max_rob_occupancy = 0;
  }

(* The wrong-path transmit pair lists are concatenated newest-run-first;
   the cap is re-applied on [record_], not here, so an aggregate may
   exceed it (the count stays truthful). *)
let accumulate dst src =
  dst.cycles <- dst.cycles + src.cycles;
  dst.committed <- dst.committed + src.committed;
  dst.committed_loads <- dst.committed_loads + src.committed_loads;
  dst.committed_stores <- dst.committed_stores + src.committed_stores;
  dst.committed_branches <- dst.committed_branches + src.committed_branches;
  dst.committed_transmitters <-
    dst.committed_transmitters + src.committed_transmitters;
  dst.fetched <- dst.fetched + src.fetched;
  dst.squashed <- dst.squashed + src.squashed;
  dst.mispredicts <- dst.mispredicts + src.mispredicts;
  dst.policy_stall_cycles <- dst.policy_stall_cycles + src.policy_stall_cycles;
  dst.transmit_stall_cycles <-
    dst.transmit_stall_cycles + src.transmit_stall_cycles;
  dst.restricted_committed <-
    dst.restricted_committed + src.restricted_committed;
  dst.restricted_transmitters <-
    dst.restricted_transmitters + src.restricted_transmitters;
  dst.wrong_path_executed_loads <-
    dst.wrong_path_executed_loads + src.wrong_path_executed_loads;
  dst.wrong_path_transmits <- src.wrong_path_transmits @ dst.wrong_path_transmits;
  dst.wrong_path_transmit_count <-
    dst.wrong_path_transmit_count + src.wrong_path_transmit_count;
  dst.wrong_path_transmits_dropped <-
    dst.wrong_path_transmits_dropped + src.wrong_path_transmits_dropped;
  dst.max_rob_occupancy <- max dst.max_rob_occupancy src.max_rob_occupancy

let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.committed /. float_of_int t.cycles

let mpki t =
  if t.committed = 0 then 0.0
  else float_of_int t.mispredicts *. 1000.0 /. float_of_int t.committed

let cap = 50_000

(* The explicit length counter keeps this O(1); calling [List.length] on
   every record made long runs O(n^2). *)
let record_wrong_path_transmit t ~branch_pc ~pc =
  if t.wrong_path_transmit_count >= cap then
    t.wrong_path_transmits_dropped <- t.wrong_path_transmits_dropped + 1
  else begin
    t.wrong_path_transmits <- (branch_pc, pc) :: t.wrong_path_transmits;
    t.wrong_path_transmit_count <- t.wrong_path_transmit_count + 1
  end

let to_json t =
  let module J = Levioso_telemetry.Json in
  J.Obj
    [
      ("cycles", J.Int t.cycles);
      ("committed", J.Int t.committed);
      ("ipc", J.Float (ipc t));
      ("mpki", J.Float (mpki t));
      ("committed_loads", J.Int t.committed_loads);
      ("committed_stores", J.Int t.committed_stores);
      ("committed_branches", J.Int t.committed_branches);
      ("committed_transmitters", J.Int t.committed_transmitters);
      ("fetched", J.Int t.fetched);
      ("squashed", J.Int t.squashed);
      ("mispredicts", J.Int t.mispredicts);
      ("policy_stall_cycles", J.Int t.policy_stall_cycles);
      ("transmit_stall_cycles", J.Int t.transmit_stall_cycles);
      ("restricted_committed", J.Int t.restricted_committed);
      ("restricted_transmitters", J.Int t.restricted_transmitters);
      ("wrong_path_executed_loads", J.Int t.wrong_path_executed_loads);
      ("wrong_path_transmits", J.Int t.wrong_path_transmit_count);
      ("wrong_path_transmits_dropped", J.Int t.wrong_path_transmits_dropped);
      ("max_rob_occupancy", J.Int t.max_rob_occupancy);
    ]

let of_json =
  let module J = Levioso_telemetry.Json in
  J.decoded (fun j ->
    let int k = J.(get to_int_exn) k j in
    {
      cycles = int "cycles";
      committed = int "committed";
      committed_loads = int "committed_loads";
      committed_stores = int "committed_stores";
      committed_branches = int "committed_branches";
      committed_transmitters = int "committed_transmitters";
      fetched = int "fetched";
      squashed = int "squashed";
      mispredicts = int "mispredicts";
      policy_stall_cycles = int "policy_stall_cycles";
      transmit_stall_cycles = int "transmit_stall_cycles";
      restricted_committed = int "restricted_committed";
      restricted_transmitters = int "restricted_transmitters";
      wrong_path_executed_loads = int "wrong_path_executed_loads";
      wrong_path_transmits = [];
      wrong_path_transmit_count = int "wrong_path_transmits";
      wrong_path_transmits_dropped = int "wrong_path_transmits_dropped";
      max_rob_occupancy = int "max_rob_occupancy";
    })
