(* Clocks, order statistics and process counters shared by every
   workload. *)

(* Monotonic nanoseconds.  The underlying external is unboxed and
   noalloc, so timing a policy hook adds no minor allocation to the run
   it measures. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

(* Host CPU seconds (user + system) this process has used so far.  On a
   shared host this excludes the time other tenants hold the processor,
   which wall time does not. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [pin k] pins the calling thread to the [k]-th processor (modulo their
   number) this process may use, and says whether the host allowed it;
   [unpin ()] gives it every one of them back. *)
external pin : int -> bool = "perfbench_pin" [@@noalloc]
external unpin : unit -> unit = "perfbench_unpin" [@@noalloc]

(* Linear-interpolated quantile [q] in [0, 1]; nan on an empty list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The tail percentile of a latency sample: [want] when at least ten
   samples lie beyond it, else the highest standard percentile that
   still has ten beyond it, else the median.  Returns the percentile
   used with its value. *)
let tail ~want xs =
  let n = float_of_int (List.length xs) in
  let ok p = p <= want && n *. (1. -. (p /. 100.)) >= 10. in
  match List.find_opt ok [ 99.; 95.; 90.; 75. ] with
  | Some p -> (p, quantile (p /. 100.) xs)
  | None -> (50., median xs)

let sum = List.fold_left ( +. ) 0.

(* Peak resident set of this process in MB (VmHWM); nan where /proc is
   unavailable. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:nan

(* Restart the peak resident set at the current one, so the next
   [peak_rss_mb] covers only what follows. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Times [f] with [reps] repetitions and returns the median seconds of
   one repetition. *)
let median_time ~reps f =
  median
    (List.init reps (fun _ ->
         let t0 = now_s () in
         f ();
         now_s () -. t0))
