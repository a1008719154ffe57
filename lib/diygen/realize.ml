(* Realising a cycle as a litmus test (the heart of diy): walk the cycle
   assigning threads, locations and values; emit LK primitives per thread;
   derive the final condition that pins exactly the cycle's execution.

   Every generated test is validated: its condition must identify at least
   one candidate execution (otherwise the cycle was degenerate and the
   test is dropped), decided per event structure by {!realisable}. *)

open Litmus.Ast

type event = {
  ix : int;
  thread : int;
  loc : int;
  dir : Edge.dir;
  acquire : bool; (* source of an Acq_po edge *)
  release : bool; (* target of a Po_rel edge *)
  value : int option; (* for W: value written; for R: value read *)
}

let loc_name i = Printf.sprintf "l%d" i

(* Walk the cycle: event i sits between edge (i-1) and edge i. *)
let events_of_cycle cycle =
  let n = List.length cycle in
  let edges = Array.of_list cycle in
  let n_threads = Cycle.n_external cycle in
  let d = Cycle.n_diff_loc cycle in
  let n_locs = max d 1 in
  (* The canonical rotation may not start at a thread boundary; rotate so
     the wrap edge is external. *)
  let dir_of i =
    (* direction of event i from surrounding edges *)
    let prev = edges.((i + n - 1) mod n) and next = edges.(i) in
    match (Edge.tgt_dir prev, Edge.src_dir next) with
    | Some a, Some b when a = b -> Some a
    | Some a, None -> Some a
    | None, Some b -> Some b
    | None, None -> None
    | Some _, Some _ -> None (* junction mismatch *)
  in
  let rec build i thread loc acc =
    if i = n then List.rev acc
    else
      match dir_of i with
      | None -> raise Exit
      | Some dir ->
          let e =
            {
              ix = i;
              thread;
              loc;
              dir;
              acquire =
                (match edges.(i) with Edge.Acq_po _ -> true | _ -> false);
              release =
                (match edges.((i + n - 1) mod n) with
                | Edge.Po_rel _ -> true
                | _ -> false);
              value = None;
            }
          in
          let thread' =
            if Edge.external_ edges.(i) then thread + 1 else thread
          in
          let loc' =
            if Edge.diff_loc edges.(i) then (loc + 1) mod n_locs else loc
          in
          build (i + 1) thread' loc' (e :: acc)
  in
  (* find a rotation whose wrap edge is external *)
  let rec find_rot k c =
    if k = 0 then None
    else
      match List.rev c with
      | last :: _ when Edge.external_ last -> Some c
      | _ -> (
          match c with
          | e :: rest -> find_rot (k - 1) (rest @ [ e ])
          | [] -> None)
  in
  match find_rot n cycle with
  | None -> None
  | Some rotated -> (
      let edges_r = Array.of_list rotated in
      Array.blit edges_r 0 edges 0 n;
      try
        let evs = build 0 0 0 [] in
        (* wrap edge must close threads and locations *)
        let first = List.hd evs and last = List.nth evs (n - 1) in
        let wrap = edges.(n - 1) in
        let loc_closes =
          if Edge.diff_loc wrap then (last.loc + 1) mod (max d 1) = first.loc
          else last.loc = first.loc
        in
        if (not loc_closes) || n_threads < 2 then None
        else Some (rotated, evs, n_threads)
      with Exit -> None)

(* Assign values: writes to each location get 1, 2, ... in walk order
   (which is the intended coherence order); each read is pinned either by
   its incoming Rfe edge or by its outgoing Fre edge. *)
let assign_values cycle evs =
  let n = List.length evs in
  let edges = Array.of_list cycle in
  let arr = Array.of_list evs in
  let next_val = Hashtbl.create 4 in
  Array.iteri
    (fun i e ->
      if e.dir = Edge.W then begin
        let v = 1 + Option.value ~default:0 (Hashtbl.find_opt next_val e.loc) in
        Hashtbl.replace next_val e.loc v;
        arr.(i) <- { e with value = Some v }
      end)
    arr;
  (* intended co order per location, in walk order *)
  let writes_of loc =
    Array.to_list arr
    |> List.filter (fun e -> e.dir = Edge.W && e.loc = loc)
  in
  let ok = ref true in
  Array.iteri
    (fun i e ->
      if e.dir = Edge.R then begin
        let incoming = edges.((i + n - 1) mod n) in
        let outgoing = edges.(i) in
        let from_rfe =
          match incoming with
          | Edge.Rfe ->
              let src = arr.((i + n - 1) mod n) in
              src.value
          | _ -> None
        in
        let from_fre =
          match outgoing with
          | Edge.Fre ->
              (* reads the co-predecessor of the target write *)
              let tgt = arr.((i + 1) mod n) in
              let ws = writes_of e.loc in
              let rec pred last = function
                | [] -> Some last
                | w :: rest ->
                    if w.ix = tgt.ix then Some last
                    else pred (Option.value ~default:0 w.value) rest
              in
              pred 0 ws
          | _ -> None
        in
        match (from_rfe, from_fre) with
        | Some a, Some b when a <> b -> ok := false
        | Some a, _ -> arr.(i) <- { e with value = Some a }
        | None, Some b -> arr.(i) <- { e with value = Some b }
        | None, None -> ok := false (* unconstrained read: degenerate *)
      end)
    arr;
  if !ok then Some (Array.to_list arr) else None

(* Emit the instructions of one thread; returns (instrs, condition atoms). *)
let emit_thread cycle all_events thread =
  let edges = Array.of_list cycle in
  let n = List.length all_events in
  let evs = List.filter (fun e -> e.thread = thread) all_events in
  let reg e = Printf.sprintf "r%d" e.ix in
  let instrs = ref [] and atoms = ref [] in
  let emit i = instrs := !instrs @ [ i ] in
  List.iter
    (fun e ->
      let loc = loc_name e.loc in
      let incoming = edges.((e.ix + n - 1) mod n) in
      (* dependency realisation from the previous event's register *)
      let dep_from =
        match incoming with
        | Edge.Dp (k, _) when e.thread = (List.nth all_events ((e.ix + n - 1) mod n)).thread ->
            Some (k, reg (List.nth all_events ((e.ix + n - 1) mod n)))
        | _ -> None
      in
      let zero_of r = Binop (Bxor, Reg r, Reg r) in
      (match (e.dir, dep_from) with
      | Edge.R, Some (Edge.Addr, r) ->
          let rp = Printf.sprintf "rp%d" e.ix in
          emit (Assign (rp, Binop (Add, zero_of r, Addr loc)));
          emit
            (Read
               ( (if e.acquire then R_acquire else R_once),
                 reg e,
                 Deref rp ));
          atoms := Reg_eq (e.thread, reg e, VInt (Option.get e.value)) :: !atoms
      | Edge.R, _ ->
          emit
            (Read ((if e.acquire then R_acquire else R_once), reg e, Sym loc));
          atoms := Reg_eq (e.thread, reg e, VInt (Option.get e.value)) :: !atoms
      | Edge.W, Some (Edge.Addr, r) ->
          let rp = Printf.sprintf "rp%d" e.ix in
          emit (Assign (rp, Binop (Add, zero_of r, Addr loc)));
          emit
            (Write
               ( (if e.release then W_release else W_once),
                 Deref rp,
                 Const (Option.get e.value) ))
      | Edge.W, Some (Edge.Data, r) ->
          emit
            (Write
               ( (if e.release then W_release else W_once),
                 Sym loc,
                 Binop (Add, zero_of r, Const (Option.get e.value)) ))
      | Edge.W, Some (Edge.Ctrl, r) ->
          (* the branch tests the value the cycle pins for the source read *)
          let src = List.nth all_events ((e.ix + n - 1) mod n) in
          emit
            (If
               ( Binop (Eq, Reg r, Const (Option.value ~default:0 src.value)),
                 [
                   Write
                     ( (if e.release then W_release else W_once),
                       Sym loc,
                       Const (Option.get e.value) );
                 ],
                 [] ))
      | Edge.W, _ ->
          emit
            (Write
               ( (if e.release then W_release else W_once),
                 Sym loc,
                 Const (Option.get e.value) )));
      (* fences between this event and the next one on the same thread *)
      (match edges.(e.ix) with
      | Edge.Fenced (Edge.Mb, _, _) -> emit (Fence F_mb)
      | Edge.Fenced (Edge.Wmb, _, _) -> emit (Fence F_wmb)
      | Edge.Fenced (Edge.Rmb, _, _) -> emit (Fence F_rmb)
      | Edge.Fenced (Edge.Sync, _, _) -> emit (Fence F_sync_rcu)
      | _ -> ()))
    evs;
  (!instrs, !atoms)

(* Condition atoms also pin the final value of multi-write locations,
   fixing the intended coherence order. *)
let co_atoms all_events =
  let locs = List.sort_uniq compare (List.map (fun e -> e.loc) all_events) in
  List.filter_map
    (fun loc ->
      let ws = List.filter (fun e -> e.dir = Edge.W && e.loc = loc) all_events in
      match List.rev ws with
      | last :: _ :: _ -> Some (Mem_eq (loc_name loc, VInt (Option.get last.value)))
      | _ -> None)
    locs

(* Does some candidate execution of [test] satisfy its condition body?
   Decided per event structure, with no structure built.  The condition
   reads the structure's registers and each location's co-maximal write,
   and {!Exec.of_test} yields every coherence order of every structure
   that is not {!Exec.dead}.  So in such a structure any non-init write
   of a location can be final, independently per location, and a
   location with no such write keeps its initial value: the condition is
   satisfiable iff some choice of those final values makes it hold. *)
let realisable (test : Litmus.Ast.t) =
  let locs =
    List.filter_map
      (function `Mem x -> Some x | `Reg _ -> None)
      (Exec.observables test)
  in
  Seq.exists
    (fun st ->
      let finals x =
        match Exec.structure_writes st x with
        | [] -> [ Litmus.Ast.init_value test x ]
        | ws -> List.sort_uniq Int.compare (List.map snd ws)
      in
      let rec choose mem = function
        | [] ->
            Exec.holds test (function
              | `Reg (tid, r) -> Exec.final_reg (Exec.structure_regs st) tid r
              | `Mem x -> List.assoc x mem)
        | (x, vs) :: rest ->
            List.exists (fun v -> choose ((x, v) :: mem) rest) vs
      in
      (not (Exec.dead st))
      && choose [] (List.map (fun x -> (x, finals x)) locs))
    (Exec.structures test)

(* The test [cycle] realises, before validation: [None] when the walk
   or the value assignment fails. *)
let draft cycle =
  match events_of_cycle cycle with
  | None -> None
  | Some (rotated, evs, n_threads) -> (
      match assign_values rotated evs with
      | None -> None
      | Some evs ->
          let per_thread =
            List.init n_threads (fun t -> emit_thread rotated evs t)
          in
          let threads = List.map fst per_thread in
          let atoms = List.concat_map snd per_thread @ co_atoms evs in
          let cond =
            List.fold_left
              (fun acc a -> And (acc, Atom a))
              Ctrue atoms
          in
          Some
            {
              name = Cycle.name rotated;
              init = [];
              threads = Array.of_list threads;
              quant = Q_exists;
              cond;
            })

(* validation: the pinned outcome must exist among the candidate
   executions, else the realisation was degenerate *)
let test_of_cycle cycle =
  match draft cycle with
  | Some test when realisable test -> Some test
  | _ -> None
