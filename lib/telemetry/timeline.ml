let format_version = 1

type insn = {
  seq : int;
  pc : int;
  fetch_c : int;
  mutable issue_c : int option;
  mutable complete_c : int option;
  mutable commit_c : int option;
  mutable squash_c : int option;
  mutable resolve_i : (int * bool * bool) option;
  (* (cycle, cause, code), newest first; reversed at render time *)
  mutable stalls : (int * string * string) list;
}

(* The pipeline reuses sequence numbers: after a squash, re-fetched
   correct-path instructions get the seqs their wrong-path predecessors
   held.  Records are therefore keyed by a private per-fetch instance id
   ([insns]), with [live] mapping each seq to its current instance —
   otherwise the re-fetch would overwrite the squashed record and
   wrong-path work would vanish from the trace. *)
type t = {
  window : (int * int) option;
  disasm : int -> string;
  insns : (int, insn) Hashtbl.t;  (* instance id -> record, in fetch order *)
  live : (int, int) Hashtbl.t;  (* seq -> instance id of latest fetch *)
  mutable next_instance : int;
  mutable last_cycle : int;
  mutable seen : int;
}

let create ?window ?disasm () =
  (match window with
  | Some (a, b) when a < 0 || a > b ->
      invalid_arg (Printf.sprintf "Timeline.create: bad window %d:%d" a b)
  | _ -> ());
  let disasm = match disasm with Some f -> f | None -> Printf.sprintf "pc=%d" in
  {
    window;
    disasm;
    insns = Hashtbl.create 256;
    live = Hashtbl.create 256;
    next_instance = 0;
    last_cycle = 0;
    seen = 0;
  }

let touch t cycle = if cycle > t.last_cycle then t.last_cycle <- cycle

let fetch t ~cycle ~seq ~pc =
  touch t cycle;
  t.seen <- t.seen + 1;
  let keep =
    match t.window with Some (a, b) -> cycle >= a && cycle <= b | None -> true
  in
  if keep then begin
    let id = t.next_instance in
    t.next_instance <- id + 1;
    Hashtbl.replace t.live seq id;
    Hashtbl.replace t.insns id
      {
        seq;
        pc;
        fetch_c = cycle;
        issue_c = None;
        complete_c = None;
        commit_c = None;
        squash_c = None;
        resolve_i = None;
        stalls = [];
      }
  end
  else
    (* a stale mapping would attribute this instance's later events to a
       previous in-window holder of the same seq *)
    Hashtbl.remove t.live seq

let find t seq =
  match Hashtbl.find_opt t.live seq with
  | Some id -> Hashtbl.find_opt t.insns id
  | None -> None

let issue t ~cycle ~seq =
  touch t cycle;
  match find t seq with Some i -> i.issue_c <- Some cycle | None -> ()

let complete t ~cycle ~seq =
  touch t cycle;
  match find t seq with Some i -> i.complete_c <- Some cycle | None -> ()

let commit t ~cycle ~seq =
  touch t cycle;
  match find t seq with Some i -> i.commit_c <- Some cycle | None -> ()

let resolve t ~cycle ~seq ~taken ~mispredicted =
  touch t cycle;
  match find t seq with
  | Some i -> i.resolve_i <- Some (cycle, taken, mispredicted)
  | None -> ()

let squash t ~cycle ~boundary ~count =
  touch t cycle;
  for seq = boundary + 1 to boundary + count do
    match find t seq with
    | Some i when i.commit_c = None && i.squash_c = None ->
        i.squash_c <- Some cycle
    | _ -> ()
  done

let stall t ~cycle ~seq ~cause ~code =
  touch t cycle;
  match find t seq with
  | Some i -> i.stalls <- (cycle, cause, code) :: i.stalls
  | None -> ()

type interval = {
  iv_seq : int;
  iv_pc : int;
  iv_fetch : int;
  iv_issue : int option;
  iv_complete : int option;
  iv_commit : int option;
  iv_squash : int option;
  iv_stalls : (int * string) list;
}

(* fetch order: instance ids are allocated monotonically *)
let sorted_insns t =
  Hashtbl.fold (fun id i acc -> (id, i) :: acc) t.insns []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let intervals t =
  List.map
    (fun i ->
      {
        iv_seq = i.seq;
        iv_pc = i.pc;
        iv_fetch = i.fetch_c;
        iv_issue = i.issue_c;
        iv_complete = i.complete_c;
        iv_commit = i.commit_c;
        iv_squash = i.squash_c;
        iv_stalls = List.rev_map (fun (c, cause, _) -> (c, cause)) i.stalls;
      })
    (sorted_insns t)
  |> List.stable_sort (fun a b -> compare (a.iv_seq, a.iv_fetch) (b.iv_seq, b.iv_fetch))

let recorded t = Hashtbl.length t.insns
let seen t = t.seen

(* Merge consecutive same-cause stall cycles into half-open episodes
   [(first, past_last, cause, code)].  Input is oldest first. *)
let episodes stalls =
  let rec go acc = function
    | [] -> List.rev acc
    | (c, cause, code) :: rest -> (
        match acc with
        | (c0, c1, cause0, code0) :: tl when cause0 = cause && c = c1 ->
            go ((c0, c + 1, cause0, code0) :: tl) rest
        | _ -> go ((c, c + 1, cause, code) :: acc) rest)
  in
  go [] stalls

(* Lane-0 stage segments, half-open [start, past_end).  [term] closes
   still-open stages: the squash cycle for squashed instructions, one
   past the last observed cycle otherwise. *)
let lane0 i term =
  let f_end = i.fetch_c + 1 in
  let base = [ ("F", i.fetch_c, f_end) ] in
  let tail =
    match (i.issue_c, i.complete_c, i.commit_c) with
    | Some isu, Some comp, cm ->
        let c_end = match cm with Some c -> c + 1 | None -> term in
        [ ("I", f_end, isu); ("X", isu, comp); ("C", comp, c_end) ]
    | Some isu, None, _ -> [ ("I", f_end, isu); ("X", isu, term) ]
    | None, _, Some cm ->
        (* Done at dispatch (jump/halt): window residence until commit. *)
        [ ("C", f_end, cm + 1) ]
    | None, _, None -> [ ("I", f_end, term) ]
  in
  List.filter (fun (_, s, e) -> e > s) (base @ tail)

let render ?(meta = []) t out =
  out "Kanata\t0004\n";
  out
    (Printf.sprintf "#levioso-timeline\tv%d\tschema_version=%d\n" format_version
       Schema.version);
  (match t.window with
  | Some (a, b) -> out (Printf.sprintf "#window\t%d:%d\n" a b)
  | None -> ());
  List.iter (fun (k, v) -> out (Printf.sprintf "#%s\t%s\n" k v)) meta;
  let insns = sorted_insns t in
  let horizon = t.last_cycle + 1 in
  (* (cycle, file id, op index within instruction, line) *)
  let ops = ref [] in
  List.iteri
    (fun id i ->
      let opidx = ref 0 in
      let push cycle line =
        ops := (cycle, id, !opidx, line) :: !ops;
        incr opidx
      in
      push i.fetch_c (Printf.sprintf "I\t%d\t%d\t0" id i.seq);
      push i.fetch_c (Printf.sprintf "L\t%d\t0\t%d: %s" id i.pc (t.disasm i.pc));
      push i.fetch_c
        (Printf.sprintf "L\t%d\t1\tseq=%d pc=%d fetch=%d " id i.seq i.pc
           i.fetch_c);
      (match i.resolve_i with
      | Some (c, taken, misp) ->
          push i.fetch_c
            (Printf.sprintf "L\t%d\t1\tresolved@%d taken=%b mispredict=%b " id c
               taken misp)
      | None -> ());
      let term = match i.squash_c with Some s -> s | None -> horizon in
      List.iter
        (fun (stage, s, e) ->
          push s (Printf.sprintf "S\t%d\t0\t%s" id stage);
          push e (Printf.sprintf "E\t%d\t0\t%s" id stage))
        (lane0 i term);
      List.iter
        (fun (c0, c1, cause, code) ->
          push i.fetch_c
            (Printf.sprintf "L\t%d\t1\t%s [%d,%d) " id cause c0 c1);
          push c0 (Printf.sprintf "S\t%d\t1\t%s" id code);
          push c1 (Printf.sprintf "E\t%d\t1\t%s" id code))
        (episodes (List.rev i.stalls));
      match (i.commit_c, i.squash_c) with
      | Some cm, _ -> push (cm + 1) (Printf.sprintf "R\t%d\t%d\t0" id i.seq)
      | None, Some sq -> push sq (Printf.sprintf "R\t%d\t%d\t1" id i.seq)
      | None, None -> ())
    insns;
  let sorted =
    List.sort
      (fun (c1, i1, o1, _) (c2, i2, o2, _) -> compare (c1, i1, o1) (c2, i2, o2))
      !ops
  in
  let cur = ref min_int in
  List.iter
    (fun (c, _, _, line) ->
      if c <> !cur then (
        out (Printf.sprintf "C=\t%d\n" c);
        cur := c);
      out line;
      out "\n")
    sorted

let to_konata_string ?meta t =
  let buf = Buffer.create 4096 in
  render ?meta t (Buffer.add_string buf);
  Buffer.contents buf

let write_konata ?meta t oc = render ?meta t (output_string oc)
