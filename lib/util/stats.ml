let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let sum_logs = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (sum_logs /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let overhead_pct ~baseline x =
  if baseline = 0.0 then 0.0 else (x /. baseline -. 1.0) *. 100.0
