type task = Task of (unit -> unit) | Stop

type t = {
  pool_size : int;
  max_pending : int option;
  tasks : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  not_full : Condition.t;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
}

let default_size () = Domain.recommended_domain_count ()

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.tasks do
    Condition.wait pool.nonempty pool.mutex
  done;
  let task = Queue.pop pool.tasks in
  Condition.signal pool.not_full;
  Mutex.unlock pool.mutex;
  match task with
  | Stop -> ()
  | Task f ->
    f ();
    worker_loop pool

let create ?size ?max_pending () =
  let size =
    match size with
    | Some n -> max 1 n
    | None -> default_size ()
  in
  let pool =
    {
      pool_size = size;
      max_pending = Option.map (max 1) max_pending;
      tasks = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      not_full = Condition.create ();
      workers = [];
      stopped = false;
    }
  in
  if size > 1 then
    pool.workers <-
      List.init size (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size t = t.pool_size

let queue_depth t =
  Mutex.lock t.mutex;
  let n = Queue.length t.tasks in
  Mutex.unlock t.mutex;
  n

(* [Stop] bypasses the bound so {!shutdown} can always drain a full
   queue; real work blocks here until a worker frees a slot, which is
   the daemon's backpressure.  [t.stopped] is checked under the mutex:
   a submitter blocked on a full queue when {!shutdown} begins is woken
   by the shutdown broadcast and rejected, instead of enqueueing a task
   behind the [Stop] markers that no worker will ever run (which would
   strand its {!await} forever). *)
let submit t task =
  Mutex.lock t.mutex;
  (match (t.max_pending, task) with
  | Some m, Task _ ->
    while (not t.stopped) && Queue.length t.tasks >= m do
      Condition.wait t.not_full t.mutex
    done
  | _ -> ());
  match (t.stopped, task) with
  | true, Task _ ->
    Mutex.unlock t.mutex;
    invalid_arg "Parallel.submit: pool has been shut down"
  | _ ->
    Queue.push task t.tasks;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    (* wake submitters blocked on a full queue so they observe the stop *)
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex;
    List.iter (fun _ -> submit t Stop) t.workers;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* One slot per input element; a worker never touches another element's
   slot, and the caller reads slots only after the countdown says every
   element is done (synchronized through [done_mutex]), so slot access is
   race-free. *)
type 'b slot =
  | Pending
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let ensure_live t what =
  Mutex.lock t.mutex;
  let stopped = t.stopped in
  Mutex.unlock t.mutex;
  if stopped then invalid_arg (what ^ ": pool has been shut down")

let map t f xs =
  ensure_live t "Parallel.map";
  if t.pool_size <= 1 then List.map f xs
  else begin
    let n = List.length xs in
    if n = 0 then []
    else begin
      let slots = Array.make n Pending in
      let remaining = Atomic.make n in
      let done_mutex = Mutex.create () in
      let done_cond = Condition.create () in
      List.iteri
        (fun i x ->
          submit t
            (Task
               (fun () ->
                 (slots.(i) <-
                   (match f x with
                   | y -> Value y
                   | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
                 if Atomic.fetch_and_add remaining (-1) = 1 then begin
                   Mutex.lock done_mutex;
                   Condition.broadcast done_cond;
                   Mutex.unlock done_mutex
                 end)))
        xs;
      Mutex.lock done_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait done_cond done_mutex
      done;
      Mutex.unlock done_mutex;
      (* The lowest-indexed failure wins, independent of completion order,
         so error reporting is as deterministic as the results. *)
      Array.iter
        (function
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending | Value _ -> ())
        slots;
      List.init n (fun i ->
          match slots.(i) with
          | Value y -> y
          | Pending | Raised _ -> assert false)
    end
  end

(* --- single-task futures (the daemon's scheduling primitive) --- *)

type 'a outcome =
  | Running
  | Finished of 'a
  | Failed of exn * Printexc.raw_backtrace

type times = { submitted_s : float; started_s : float; finished_s : float }

type 'a future = {
  fmu : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a outcome;
  fsubmitted : float;
  (* stamped by the worker under [fmu] together with the final state, so
     a reader that observed completion also observes the stamps *)
  mutable fstarted : float;
  mutable ffinished : float;
}

let async t f =
  ensure_live t "Parallel.async";
  let fut =
    {
      fmu = Mutex.create ();
      fcond = Condition.create ();
      fstate = Running;
      fsubmitted = Unix.gettimeofday ();
      fstarted = 0.;
      ffinished = 0.;
    }
  in
  let run () =
    let started = Unix.gettimeofday () in
    let result =
      match f () with
      | y -> Finished y
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    let finished = Unix.gettimeofday () in
    Mutex.lock fut.fmu;
    fut.fstarted <- started;
    fut.ffinished <- finished;
    fut.fstate <- result;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmu
  in
  (* A serial pool computes at submission time, in the calling thread —
     same degenerate path as [map]. *)
  if t.pool_size <= 1 then run () else submit t (Task run);
  fut

let await fut =
  Mutex.lock fut.fmu;
  while (match fut.fstate with Running -> true | _ -> false) do
    Condition.wait fut.fcond fut.fmu
  done;
  let state = fut.fstate in
  Mutex.unlock fut.fmu;
  match state with
  | Finished y -> y
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Running -> assert false

let times fut =
  Mutex.lock fut.fmu;
  let r =
    match fut.fstate with
    | Running -> None
    | Finished _ | Failed _ ->
      Some
        {
          submitted_s = fut.fsubmitted;
          started_s = fut.fstarted;
          finished_s = fut.ffinished;
        }
  in
  Mutex.unlock fut.fmu;
  r

let with_pool ?size ?max_pending f =
  let pool = create ?size ?max_pending () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
