(* Per-thread semantics: symbolic execution of one thread under every
   possible assignment of values to its reads, yielding thread candidates
   with events (in program order), dependency edges and final register
   values.  Event identifiers are local to the thread (0-based, in program
   order) and re-based when threads are combined into executions. *)

module Iset = Rel.Iset
open Litmus.Ast

type proto_event = {
  dir : Event.dir;
  loc : string;
  v : int;
  annot : Event.annot;
}

type candidate = {
  events : proto_event list; (* in program order *)
  addr : (int * int) list;
  data : (int * int) list;
  ctrl : (int * int) list;
  rmw : (int * int) list;
  regs : (string * int) list; (* final register values *)
}

type state = {
  addresses : (string * int) list; (* each global's address *)
  domain : string -> int list; (* candidate read values, per location *)
  env : (string * (int * Iset.t)) list; (* register -> value, read deps *)
  ctrl_ctx : Iset.t; (* reads controlling the current branch *)
  rev_events : proto_event list;
  next : int;
  acc_addr : (int * int) list;
  acc_data : (int * int) list;
  acc_ctrl : (int * int) list;
  acc_rmw : (int * int) list;
}

let bool_to_int b = if b then 1 else 0

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Eq -> bool_to_int (a = b)
  | Neq -> bool_to_int (a <> b)
  | Lt -> bool_to_int (a < b)
  | Gt -> bool_to_int (a > b)
  | Le -> bool_to_int (a <= b)
  | Ge -> bool_to_int (a >= b)
  | Land -> bool_to_int (a <> 0 && b <> 0)
  | Lor -> bool_to_int (a <> 0 || b <> 0)

(* Evaluate a pure expression to (value, set of reads it depends on). *)
let rec eval st = function
  | Const n -> (n, Iset.empty)
  | Addr x -> (address_in st.addresses x, Iset.empty)
  | Reg r -> (
      match List.assoc_opt r st.env with
      | Some vd -> vd
      | None -> (0, Iset.empty) (* uninitialised registers read as 0 *))
  | Binop (op, a, b) ->
      let va, da = eval st a and vb, db = eval st b in
      (eval_binop op va vb, Iset.union da db)
  | Unop (Neg, a) ->
      let v, d = eval st a in
      (-v, d)
  | Unop (Lnot, a) ->
      let v, d = eval st a in
      (bool_to_int (v = 0), d)

(* Resolve a location expression to (global name, address deps); [None] if a
   dereferenced register does not hold the address of a global (the branch
   of the exploration is then infeasible). *)
let resolve_loc st = function
  | Sym x -> Some (x, Iset.empty)
  | Deref r ->
      let v, deps = eval st (Reg r) in
      Option.map (fun x -> (x, deps)) (global_in st.addresses v)

let emit st proto = ({ st with rev_events = proto :: st.rev_events; next = st.next + 1 }, st.next)

let add_edges edges st field =
  match field with
  | `Addr -> { st with acc_addr = edges @ st.acc_addr }
  | `Data -> { st with acc_data = edges @ st.acc_data }
  | `Ctrl -> { st with acc_ctrl = edges @ st.acc_ctrl }

let edges_from deps target = List.map (fun s -> (s, target)) (Iset.elements deps)

(* Emit ctrl edges from the current control context to a fresh event. *)
let with_ctrl st id = add_edges (edges_from st.ctrl_ctx id) st `Ctrl

let read_annot_to_event = function R_once -> Event.Once | R_acquire -> Event.Acquire
let write_annot_to_event = function W_once -> Event.Once | W_release -> Event.Release

let fence_annot = function
  | F_rmb -> Event.Rmb
  | F_wmb -> Event.Wmb
  | F_mb -> Event.Mb
  | F_rb_dep -> Event.Rb_dep
  | F_rcu_lock -> Event.Rcu_lock
  | F_rcu_unlock -> Event.Rcu_unlock
  | F_sync_rcu -> Event.Sync_rcu

(* Explore instructions; continuation-passing over lists of final states. *)
let rec explore st instrs =
  match instrs with
  | [] -> [ st ]
  | i :: rest -> List.concat_map (fun st' -> explore st' rest) (step st i)

and step st = function
  | Assign (r, e) ->
      let vd = eval st e in
      [ { st with env = (r, vd) :: List.remove_assoc r st.env } ]
  | Fence f ->
      let st', id =
        emit st { dir = Event.F; loc = ""; v = 0; annot = fence_annot f }
      in
      [ with_ctrl st' id ]
  | Read (a, r, l) -> do_read st (read_annot_to_event a) ~rb_dep:false r l
  | Rcu_dereference (r, l) -> do_read st Event.Once ~rb_dep:true r l
  | Write (a, l, e) -> (
      match resolve_loc st l with
      | None -> []
      | Some (loc, adeps) ->
          let v, ddeps = eval st e in
          let st, id =
            emit st
              { dir = Event.W; loc; v; annot = write_annot_to_event a }
          in
          let st = add_edges (edges_from adeps id) st `Addr in
          let st = add_edges (edges_from ddeps id) st `Data in
          [ with_ctrl st id ])
  | Xchg (k, r, l, e) -> (
      match resolve_loc st l with
      | None -> []
      | Some (loc, adeps) ->
          let vnew, ddeps = eval st e in
          let r_annot, w_annot, full =
            match k with
            | X_relaxed -> (Event.Once, Event.Once, false)
            | X_acquire -> (Event.Acquire, Event.Once, false)
            | X_release -> (Event.Once, Event.Release, false)
            | X_full -> (Event.Once, Event.Once, true)
          in
          List.map
            (fun vold ->
              let st = st in
              let st, _ =
                if full then
                  let st, id = emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Mb } in
                  (with_ctrl st id, id)
                else (st, -1)
              in
              let st, rid =
                emit st { dir = Event.R; loc; v = vold; annot = r_annot }
              in
              let st = add_edges (edges_from adeps rid) st `Addr in
              let st = with_ctrl st rid in
              let st, wid =
                emit st { dir = Event.W; loc; v = vnew; annot = w_annot }
              in
              let st = add_edges (edges_from adeps wid) st `Addr in
              let st = add_edges (edges_from ddeps wid) st `Data in
              let st = with_ctrl st wid in
              let st = { st with acc_rmw = (rid, wid) :: st.acc_rmw } in
              let st, _ =
                if full then
                  let st, id = emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Mb } in
                  (with_ctrl st id, id)
                else (st, -1)
              in
              {
                st with
                env = (r, (vold, Iset.singleton rid)) :: List.remove_assoc r st.env;
              })
            (st.domain loc))
  | Cmpxchg (k, r, l, old_e, new_e) -> (
      match resolve_loc st l with
      | None -> []
      | Some (loc, adeps) ->
          let v_old, odeps = eval st old_e in
          let v_new, ndeps = eval st new_e in
          let r_annot, w_annot, full =
            match k with
            | X_relaxed -> (Event.Once, Event.Once, false)
            | X_acquire -> (Event.Acquire, Event.Once, false)
            | X_release -> (Event.Once, Event.Release, false)
            | X_full -> (Event.Once, Event.Once, true)
          in
          List.map
            (fun vread ->
              if vread <> v_old then begin
                (* failure: a plain once read, no ordering, no fences *)
                let st, rid =
                  emit st { dir = Event.R; loc; v = vread; annot = Event.Once }
                in
                let st = add_edges (edges_from adeps rid) st `Addr in
                let st = add_edges (edges_from odeps rid) st `Addr in
                let st = with_ctrl st rid in
                {
                  st with
                  env =
                    (r, (vread, Iset.singleton rid))
                    :: List.remove_assoc r st.env;
                }
              end
              else begin
                let st, _ =
                  if full then
                    let st, id =
                      emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Mb }
                    in
                    (with_ctrl st id, id)
                  else (st, -1)
                in
                let st, rid =
                  emit st { dir = Event.R; loc; v = vread; annot = r_annot }
                in
                let st = add_edges (edges_from adeps rid) st `Addr in
                let st = add_edges (edges_from odeps rid) st `Addr in
                let st = with_ctrl st rid in
                let st, wid =
                  emit st { dir = Event.W; loc; v = v_new; annot = w_annot }
                in
                let st = add_edges (edges_from adeps wid) st `Addr in
                let st = add_edges (edges_from ndeps wid) st `Data in
                (* success is conditional on the read's value *)
                let st = add_edges [ (rid, wid) ] st `Ctrl in
                let st = with_ctrl st wid in
                let st = { st with acc_rmw = (rid, wid) :: st.acc_rmw } in
                let st, _ =
                  if full then
                    let st, id =
                      emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Mb }
                    in
                    (with_ctrl st id, id)
                  else (st, -1)
                in
                {
                  st with
                  env =
                    (r, (vread, Iset.singleton rid))
                    :: List.remove_assoc r st.env;
                }
              end)
            (st.domain loc))
  | Atomic_add_return (k, r, l, e) -> do_atomic_add st ~k ~reg:(Some r) l e
  | Atomic_add (l, e) -> do_atomic_add st ~k:X_relaxed ~reg:None l e
  | Spin_lock l -> (
      (* xchg_acquire on the lock that must read 0 (Section 7): the failed
         acquisitions spin and are not events of the candidate execution *)
      match resolve_loc st l with
      | None -> []
      | Some (loc, adeps) ->
          let st, rid =
            emit st { dir = Event.R; loc; v = 0; annot = Event.Acquire }
          in
          let st = add_edges (edges_from adeps rid) st `Addr in
          let st = with_ctrl st rid in
          let st, wid =
            emit st { dir = Event.W; loc; v = 1; annot = Event.Once }
          in
          let st = add_edges (edges_from adeps wid) st `Addr in
          let st = with_ctrl st wid in
          [ { st with acc_rmw = (rid, wid) :: st.acc_rmw } ])
  | Spin_unlock l -> (
      match resolve_loc st l with
      | None -> []
      | Some (loc, adeps) ->
          let st, id =
            emit st { dir = Event.W; loc; v = 0; annot = Event.Release }
          in
          let st = add_edges (edges_from adeps id) st `Addr in
          [ with_ctrl st id ])
  | If (e, then_b, else_b) ->
      let v, deps = eval st e in
      let branch = if v <> 0 then then_b else else_b in
      let saved_ctx = st.ctrl_ctx in
      let st = { st with ctrl_ctx = Iset.union st.ctrl_ctx deps } in
      List.map
        (fun st' -> { st' with ctrl_ctx = saved_ctx })
        (explore st branch)

(* atomic_add_return and the void atomics: an unconditional rmw whose
   written value is old + delta, hence a data dependency from the read to
   the write. *)
and do_atomic_add st ~k ~reg l e =
  match resolve_loc st l with
  | None -> []
  | Some (loc, adeps) ->
      let delta, ddeps = eval st e in
      let r_annot, w_annot, full =
        match k with
        | X_relaxed -> (Event.Once, Event.Once, false)
        | X_acquire -> (Event.Acquire, Event.Once, false)
        | X_release -> (Event.Once, Event.Release, false)
        | X_full -> (Event.Once, Event.Once, true)
      in
      List.map
        (fun vold ->
          let st, _ =
            if full then
              let st, id =
                emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Mb }
              in
              (with_ctrl st id, id)
            else (st, -1)
          in
          let st, rid =
            emit st { dir = Event.R; loc; v = vold; annot = r_annot }
          in
          let st = add_edges (edges_from adeps rid) st `Addr in
          let st = with_ctrl st rid in
          let st, wid =
            emit st { dir = Event.W; loc; v = vold + delta; annot = w_annot }
          in
          let st = add_edges (edges_from adeps wid) st `Addr in
          (* the new value is computed from the old one *)
          let st = add_edges ((rid, wid) :: edges_from ddeps wid) st `Data in
          let st = with_ctrl st wid in
          let st = { st with acc_rmw = (rid, wid) :: st.acc_rmw } in
          let st, _ =
            if full then
              let st, id =
                emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Mb }
              in
              (with_ctrl st id, id)
            else (st, -1)
          in
          match reg with
          | Some r ->
              {
                st with
                env =
                  (r, (vold + delta, Iset.singleton rid))
                  :: List.remove_assoc r st.env;
              }
          | None -> st)
        (st.domain loc)

and do_read st annot ~rb_dep r l =
  match resolve_loc st l with
  | None -> []
  | Some (loc, adeps) ->
      List.map
        (fun v ->
          let st, id = emit st { dir = Event.R; loc; v; annot } in
          let st = add_edges (edges_from adeps id) st `Addr in
          let st = with_ctrl st id in
          let st =
            if rb_dep then
              let st, fid =
                emit st { dir = Event.F; loc = ""; v = 0; annot = Event.Rb_dep }
              in
              with_ctrl st fid
            else st
          in
          {
            st with
            env = (r, (v, Iset.singleton id)) :: List.remove_assoc r st.env;
          })
        (st.domain loc)

(* All candidates of one thread under the given read-value domain. *)
let thread_candidates ~addresses domain instrs =
  let init =
    {
      addresses;
      domain;
      env = [];
      ctrl_ctx = Iset.empty;
      rev_events = [];
      next = 0;
      acc_addr = [];
      acc_data = [];
      acc_ctrl = [];
      acc_rmw = [];
    }
  in
  List.map
    (fun st ->
      {
        events = List.rev st.rev_events;
        addr = st.acc_addr;
        data = st.acc_data;
        ctrl = st.acc_ctrl;
        rmw = st.acc_rmw;
        regs = List.map (fun (r, (v, _)) -> (r, v)) st.env;
      })
    (explore init instrs)
