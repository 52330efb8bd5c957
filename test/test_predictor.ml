module Config = Levioso_uarch.Config
module Predictor = Levioso_uarch.Predictor

let make kind = Predictor.create { Config.default with Config.predictor = kind }

(* Predict-then-train one branch outcome the way the pipeline does:
   snapshot, predict, train with the snapshot, and on a mispredict repair
   the speculative history.  Returns whether the prediction was correct. *)
let one_branch p ~pc ~taken =
  let snap = Predictor.snapshot p in
  let guess = Predictor.predict p ~pc in
  Predictor.update p ~pc ~history:snap ~taken;
  if guess <> taken then begin
    Predictor.restore p snap;
    Predictor.force_history p ~taken
  end;
  guess = taken

let train p ~pc ~taken n =
  for _ = 1 to n do
    ignore (one_branch p ~pc ~taken)
  done

let test_always_taken () =
  let p = make Config.Always_taken in
  train p ~pc:12 ~taken:false 10;
  Alcotest.(check bool) "still taken" true (Predictor.predict p ~pc:12)

let test_bimodal_learns_taken () =
  let p = make Config.Bimodal in
  train p ~pc:40 ~taken:true 4;
  Alcotest.(check bool) "learned taken" true (Predictor.predict p ~pc:40)

let test_bimodal_learns_not_taken () =
  let p = make Config.Bimodal in
  train p ~pc:40 ~taken:false 4;
  Alcotest.(check bool) "learned not-taken" false (Predictor.predict p ~pc:40)

let test_bimodal_hysteresis () =
  (* From a saturated-taken state one not-taken outcome must not flip it. *)
  let p = make Config.Bimodal in
  train p ~pc:8 ~taken:true 4;
  train p ~pc:8 ~taken:false 1;
  Alcotest.(check bool) "sticky" true (Predictor.predict p ~pc:8)

let accuracy kind ~pattern ~rounds =
  let p = make kind in
  let correct = ref 0 in
  for i = 0 to rounds - 1 do
    if one_branch p ~pc:100 ~taken:(pattern i) then incr correct
  done;
  float_of_int !correct /. float_of_int rounds

let test_gshare_learns_alternation () =
  let acc = accuracy Config.Gshare ~pattern:(fun i -> i mod 2 = 0) ~rounds:400 in
  Alcotest.(check bool)
    (Printf.sprintf "gshare alternation accuracy %.2f > 0.9" acc)
    true (acc > 0.9)

let test_gshare_beats_bimodal_on_patterns () =
  let pattern i = i mod 3 = 0 in
  let g = accuracy Config.Gshare ~pattern ~rounds:600 in
  let b = accuracy Config.Bimodal ~pattern ~rounds:600 in
  Alcotest.(check bool)
    (Printf.sprintf "gshare %.2f > bimodal %.2f" g b)
    true (g > b)

let test_biased_branch_all_predictors () =
  List.iter
    (fun kind ->
      let acc = accuracy kind ~pattern:(fun _ -> true) ~rounds:200 in
      Alcotest.(check bool) "biased-taken accuracy > 0.95" true (acc > 0.95))
    [ Config.Always_taken; Config.Bimodal; Config.Gshare ]

let test_snapshot_restore () =
  let p = make Config.Gshare in
  let snap = Predictor.snapshot p in
  ignore (Predictor.predict p ~pc:4);
  ignore (Predictor.predict p ~pc:8);
  Predictor.restore p snap;
  Alcotest.(check bool) "history restored" true (Predictor.snapshot p = snap)

let test_force_history_changes_state () =
  let p = make Config.Gshare in
  let snap = Predictor.snapshot p in
  Predictor.force_history p ~taken:true;
  Alcotest.(check bool) "shifted" true (Predictor.snapshot p <> snap)

(* [train] is the old per-branch warming sequence in one call: after
   every branch the full state and the history agree with [one_branch]. *)
let prop_train_matches_five_calls kind =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "train = five-call sequence (%s)" (Config.predictor_kind_to_string kind))
    QCheck.(list_of_size Gen.(1 -- 200) (pair (int_bound 15) bool))
    (fun branches ->
      (* small tables, so TAGE allocates, ages and aliases *)
      let cfg = { Config.default with Config.predictor = kind; predictor_bits = 6 } in
      let old_way = Predictor.create cfg and new_way = Predictor.create cfg in
      List.for_all
        (fun (pc, taken) ->
          ignore (one_branch old_way ~pc ~taken : bool);
          Predictor.train new_way ~pc ~taken;
          (Predictor.snapshot old_way :> int) = (Predictor.snapshot new_way :> int)
          && Predictor.save_state old_way = Predictor.save_state new_way)
        branches)

let suite =
  ( "predictor",
    [
      Alcotest.test_case "always taken" `Quick test_always_taken;
      Alcotest.test_case "bimodal learns taken" `Quick test_bimodal_learns_taken;
      Alcotest.test_case "bimodal learns not-taken" `Quick test_bimodal_learns_not_taken;
      Alcotest.test_case "bimodal hysteresis" `Quick test_bimodal_hysteresis;
      Alcotest.test_case "gshare alternation" `Quick test_gshare_learns_alternation;
      Alcotest.test_case "gshare vs bimodal" `Quick test_gshare_beats_bimodal_on_patterns;
      Alcotest.test_case "biased branch" `Quick test_biased_branch_all_predictors;
      Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
      Alcotest.test_case "force history" `Quick test_force_history_changes_state;
    ]
    @ List.map
        (fun k -> QCheck_alcotest.to_alcotest ~long:false (prop_train_matches_five_calls k))
        [ Config.Always_taken; Config.Bimodal; Config.Gshare; Config.Tage ] )
