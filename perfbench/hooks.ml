(* The policy layer seen from outside: a wrapper around a registry
   policy maker that counts and times every callback the pipeline makes
   into the policy, without touching the policy code.

   One [t] belongs to one cell.  The maker runs once per
   [Pipeline.create] (once per detailed interval under sampling), and
   the wrapper keeps the create-to-last-hook span of each pipeline: the
   time the detailed tier was live.  Every field is an int, so updating
   the counters allocates nothing. *)

module Pipeline = Levioso_uarch.Pipeline

type t = {
  mutable makes : int;  (** maker invocations = pipelines created *)
  mutable calls : int;  (** policy callbacks *)
  mutable hook_ns : int;  (** inside policy callbacks *)
  mutable open_ns : int;  (** start of the live pipeline's span; -1 = none *)
  mutable last_ns : int;  (** end of the latest callback *)
  mutable detailed_ns : int;  (** closed create-to-last-hook spans *)
}

let create () =
  {
    makes = 0;
    calls = 0;
    hook_ns = 0;
    open_ns = -1;
    last_ns = 0;
    detailed_ns = 0;
  }

(* Close the live pipeline's span; call once the run is over. *)
let close t =
  if t.open_ns >= 0 then begin
    t.detailed_ns <- t.detailed_ns + (t.last_ns - t.open_ns);
    t.open_ns <- -1
  end

let hook t start =
  let stop = Measure.now_ns () in
  t.calls <- t.calls + 1;
  t.hook_ns <- t.hook_ns + (stop - start);
  t.last_ns <- stop

(* Nanoseconds the wrapper itself adds per callback (two clock reads and
   the counter updates), measured once; reports subtract it. *)
let overhead =
  lazy
    (let t = create () and n = 200_000 in
     let t0 = Measure.now_ns () in
     for _ = 1 to n do
       hook t (Measure.now_ns ())
     done;
     float_of_int (Measure.now_ns () - t0) /. float_of_int n)

let overhead_ns () = Lazy.force overhead

let wrap t (maker : Pipeline.policy_maker) : Pipeline.policy_maker =
 fun config program pipe ->
  close t;
  let start = Measure.now_ns () in
  let p = maker config program pipe in
  let stop = Measure.now_ns () in
  t.makes <- t.makes + 1;
  t.open_ns <- start;
  t.last_ns <- stop;
  {
    p with
    Pipeline.on_decode =
      (fun ~seq ->
        let a = Measure.now_ns () in
        p.Pipeline.on_decode ~seq;
        hook t a);
    on_resolve =
      (fun ~seq ->
        let a = Measure.now_ns () in
        p.Pipeline.on_resolve ~seq;
        hook t a);
    on_squash =
      (fun ~boundary ->
        let a = Measure.now_ns () in
        p.Pipeline.on_squash ~boundary;
        hook t a);
    on_commit =
      (fun ~seq ->
        let a = Measure.now_ns () in
        p.Pipeline.on_commit ~seq;
        hook t a);
    may_execute =
      (fun ~seq ->
        let a = Measure.now_ns () in
        let r = p.Pipeline.may_execute ~seq in
        hook t a;
        r);
    load_visibility =
      (fun ~seq ->
        let a = Measure.now_ns () in
        let r = p.Pipeline.load_visibility ~seq in
        hook t a;
        r);
  }
