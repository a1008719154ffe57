(* Reference build of every event structure's statics: each structure
   assembled on its own from its threads' Sem candidates, with nothing
   shared between structures.  The sharing test in test_rel_dense checks
   every skeleton against it. *)

module Iset = Rel.Iset
module Event = Exec.Event

type statics = {
  events : Event.t array;
  po : Rel.t;
  addr : Rel.t;
  data : Rel.t;
  ctrl : Rel.t;
  rmw : Rel.t;
  universe : Iset.t;
  loc_r : Rel.t;
  int_r : Rel.t;
  ext_r : Rel.t;
  id_r : Rel.t;
  po_loc : Rel.t;
  crit : Rel.t;
  reads : Iset.t;
  writes : Iset.t;
  fences : Iset.t;
  mem : Iset.t;
  init_ws : Iset.t;
  co_writes : (string * int * int list) list;
  final_regs : (int * string * int) list;
  rf_choices : (int * int) list list;
}

(* crit: each outermost rcu_read_lock to its matching unlock, nesting
   resolved with a per-thread depth counter over the id-ordered thread
   events. *)
let crit_of (events : Event.t array) =
  let by_tid = Hashtbl.create 4 in
  Array.iter
    (fun (e : Event.t) ->
      if e.tid >= 0 then
        Hashtbl.replace by_tid e.tid
          (e :: (try Hashtbl.find by_tid e.tid with Not_found -> [])))
    events;
  Hashtbl.fold
    (fun _ rev_events acc ->
      let acc, _, _ =
        List.fold_left
          (fun (acc, depth, outer) (e : Event.t) ->
            match e.annot with
            | Event.Rcu_lock ->
                if depth = 0 then (acc, 1, Some e.id)
                else (acc, depth + 1, outer)
            | Event.Rcu_unlock -> (
                match (depth, outer) with
                | 1, Some l -> (Rel.add l e.id acc, 0, None)
                | d, _ when d > 1 -> (acc, d - 1, outer)
                | _ -> (acc, 0, None))
            | _ -> (acc, depth, outer))
          (acc, 0, None) (List.rev rev_events)
      in
      acc)
    by_tid Rel.empty

let set_of events p =
  Array.fold_left
    (fun acc (e : Event.t) -> if p e then Iset.add e.id acc else acc)
    Iset.empty events

let structure test globals (chosen : Exec.Sem.candidate list) =
  let n_init = List.length globals in
  let events = ref [] in
  let addr = ref [] and data = ref [] and ctrl = ref [] and rmw = ref [] in
  List.iteri
    (fun i x ->
      events :=
        {
          Event.id = i;
          tid = -1;
          dir = Event.W;
          loc = x;
          v = Litmus.Ast.init_value test x;
          annot = Event.Init;
        }
        :: !events)
    globals;
  let base = ref n_init in
  List.iteri
    (fun tid (c : Exec.Sem.candidate) ->
      let b = !base in
      List.iteri
        (fun i (pe : Exec.Sem.proto_event) ->
          events :=
            {
              Event.id = b + i;
              tid;
              dir = pe.dir;
              loc = pe.loc;
              v = pe.v;
              annot = pe.annot;
            }
            :: !events)
        c.events;
      let remap acc ps =
        List.rev_append (List.map (fun (x, y) -> (b + x, b + y)) ps) acc
      in
      addr := remap !addr c.addr;
      data := remap !data c.data;
      ctrl := remap !ctrl c.ctrl;
      rmw := remap !rmw c.rmw;
      base := b + List.length c.events)
    chosen;
  let events = Array.of_list (List.rev !events) in
  let n = Array.length events in
  let same_thread i j =
    events.(i).Event.tid >= 0 && events.(i).Event.tid = events.(j).Event.tid
  in
  let po = Rel.init n (fun i j -> i < j && same_thread i j) in
  let loc_r =
    Rel.init n (fun i j ->
        let e1 = events.(i) and e2 = events.(j) in
        i <> j && Event.is_mem e1 && Event.is_mem e2 && e1.loc = e2.loc)
  in
  let all_writes = List.filter Event.is_write (Array.to_list events) in
  let init_id x =
    let rec find i = if events.(i).Event.loc = x then i else find (i + 1) in
    find 0
  in
  {
    events;
    po;
    addr = Rel.of_list !addr;
    data = Rel.of_list !data;
    ctrl = Rel.of_list !ctrl;
    rmw = Rel.of_list !rmw;
    universe = Iset.of_range 0 (n - 1);
    loc_r;
    int_r = Rel.init n (fun i j -> i <> j && same_thread i j);
    ext_r = Rel.init n (fun i j -> i <> j && not (same_thread i j));
    id_r = Rel.init n ( = );
    po_loc = Rel.inter po loc_r;
    crit = crit_of events;
    reads = set_of events Event.is_read;
    writes = set_of events Event.is_write;
    fences = set_of events Event.is_fence;
    mem = set_of events Event.is_mem;
    init_ws = set_of events Event.is_init;
    co_writes =
      List.map
        (fun x ->
          ( x,
            init_id x,
            List.filter_map
              (fun (w : Event.t) ->
                if Event.is_init w || w.loc <> x then None else Some w.id)
              all_writes ))
        globals;
    final_regs =
      List.concat
        (List.mapi
           (fun tid (c : Exec.Sem.candidate) ->
             List.map (fun (r, v) -> (tid, r, v)) c.regs)
           chosen);
    rf_choices =
      List.filter_map
        (fun (r : Event.t) ->
          if not (Event.is_read r) then None
          else
            Some
              (List.filter_map
                 (fun (w : Event.t) ->
                   if w.loc = r.loc && w.v = r.v then Some (w.id, r.id)
                   else None)
                 all_writes))
        (Array.to_list events);
  }

(* The threads' candidates combined first thread outermost, the order of
   the library's product. *)
let rec product = function
  | [] -> [ [] ]
  | l :: ls ->
      let rest = product ls in
      List.concat_map (fun x -> List.map (fun r -> x :: r) rest) l

let structures test =
  let globals = Litmus.Ast.globals test in
  List.map (structure test globals)
    (product (Exec.thread_candidate_lists test))
