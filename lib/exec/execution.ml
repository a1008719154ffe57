(* Candidate executions (paper, Section 2): abstract executions
   (E, po, addr, data, ctrl, rmw) paired with execution witnesses (rf, co).
   {!of_test} enumerates every candidate execution of a litmus test; a
   consistency model then decides which are allowed. *)

module Iset = Rel.Iset

type t = {
  test : Litmus.Ast.t;
  events : Event.t array; (* indexed by event id *)
  po : Rel.t;
  addr : Rel.t;
  data : Rel.t;
  ctrl : Rel.t;
  rmw : Rel.t;
  rf : Rel.t;
  co : Rel.t;
  final_regs : (int * string * int) list; (* (tid, register, value) *)
  (* Derived relations and sets, computed once at construction: *)
  universe : Iset.t;
  fr : Rel.t;
  rfi : Rel.t;
  rfe : Rel.t;
  coi : Rel.t;
  coe : Rel.t;
  fri : Rel.t;
  fre : Rel.t;
  com : Rel.t;
  po_loc : Rel.t;
  int_r : Rel.t;
  ext_r : Rel.t;
  loc_r : Rel.t;
  id_r : Rel.t;
  reads : Iset.t;
  writes : Iset.t;
  fences : Iset.t;
  mem : Iset.t; (* R union W *)
  init_ws : Iset.t;
  crit : Rel.t; (* outermost rcu_read_lock -> matching rcu_read_unlock *)
}

let event t id = t.events.(id)
let n_events t = Array.length t.events

let events_where t p =
  Array.to_seq t.events
  |> Seq.filter p
  |> Seq.fold_left (fun acc (e : Event.t) -> Iset.add e.id acc) Iset.empty

(* Events carrying a given annotation. *)
let with_annot t a = events_where t (fun e -> e.annot = a)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* crit connects each outermost rcu_read_lock to its matching unlock;
   nesting is resolved with a per-thread depth counter over po (events are
   id-ordered within a thread, ids being assigned in program order). *)
let compute_crit (events : Event.t array) =
  let by_tid = Hashtbl.create 4 in
  Array.iter
    (fun (e : Event.t) ->
      if e.tid >= 0 then
        Hashtbl.replace by_tid e.tid
          (e :: (try Hashtbl.find by_tid e.tid with Not_found -> [])))
    events;
  Hashtbl.fold
    (fun _tid rev_events acc ->
      let thread_events = List.rev rev_events in
      let acc', _, _ =
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
                | _ -> (acc, 0, None) (* unmatched unlock: ignored *))
            | _ -> (acc, depth, outer))
          (acc, 0, None) thread_events
      in
      acc')
    by_tid Rel.empty

(* The witness-independent part of a candidate: everything determined by
   the event structure (events + po), shared by all rf/co witnesses of
   one structure and so computed once per structure, not per candidate. *)
type structure = {
  st_universe : Iset.t;
  st_loc_r : Rel.t;
  st_int_r : Rel.t;
  st_ext_r : Rel.t;
  st_id_r : Rel.t;
  st_po_loc : Rel.t;
  st_crit : Rel.t;
  st_reads : Iset.t;
  st_writes : Iset.t;
  st_fences : Iset.t;
  st_mem : Iset.t;
  st_init_ws : Iset.t;
}

let set_of events p =
  Array.fold_left
    (fun acc (e : Event.t) -> if p e then Iset.add e.id acc else acc)
    Iset.empty events

let structure_of (events : Event.t array) po =
  let n = Array.length events in
  let universe = Iset.of_range 0 (n - 1) in
  let loc_r =
    Rel.init n (fun i j ->
        let e1 = events.(i) and e2 = events.(j) in
        i <> j && Event.is_mem e1 && Event.is_mem e2 && e1.loc = e2.loc)
  in
  let same_thread i j =
    events.(i).Event.tid >= 0 && events.(i).Event.tid = events.(j).Event.tid
  in
  let int_r = Rel.init n (fun i j -> i <> j && same_thread i j) in
  let ext_r = Rel.init n (fun i j -> i <> j && not (same_thread i j)) in
  let id_r = Rel.init n ( = ) in
  {
    st_universe = universe;
    st_loc_r = loc_r;
    st_int_r = int_r;
    st_ext_r = ext_r;
    st_id_r = id_r;
    st_po_loc = Rel.inter po loc_r;
    st_crit = compute_crit events;
    st_reads = set_of events Event.is_read;
    st_writes = set_of events Event.is_write;
    st_fences = set_of events Event.is_fence;
    st_mem = set_of events Event.is_mem;
    st_init_ws = set_of events Event.is_init;
  }

let build ?fr ?coi ?coe test events st po addr data ctrl rmw rf co final_regs =
  let int_r = st.st_int_r and ext_r = st.st_ext_r in
  let fr =
    match fr with
    | Some fr -> fr
    | None -> Rel.diff (Rel.seq (Rel.inverse rf) co) st.st_id_r
  in
  let rfi = Rel.inter rf int_r in
  let rfe = Rel.inter rf ext_r in
  let coi = match coi with Some r -> r | None -> Rel.inter co int_r in
  let coe = match coe with Some r -> r | None -> Rel.inter co ext_r in
  let fri = Rel.inter fr int_r in
  let fre = Rel.inter fr ext_r in
  let com = Rel.union rf (Rel.union co fr) in
  {
    test;
    events;
    po;
    addr;
    data;
    ctrl;
    rmw;
    rf;
    co;
    final_regs;
    universe = st.st_universe;
    fr;
    rfi;
    rfe;
    coi;
    coe;
    fri;
    fre;
    com;
    po_loc = st.st_po_loc;
    int_r;
    ext_r;
    loc_r = st.st_loc_r;
    id_r = st.st_id_r;
    reads = st.st_reads;
    writes = st.st_writes;
    fences = st.st_fences;
    mem = st.st_mem;
    init_ws = st.st_init_ws;
    crit = st.st_crit;
  }

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(* Initial read-value domain: everything an expression could syntactically
   produce.  It is grown by a fixpoint over observed written values, so
   data-dependent writes (e.g. WRITE_ONCE(y, r1 + 1)) are covered. *)
let initial_domain (test : Litmus.Ast.t) =
  let consts = ref [ 0; 1 ] in
  let add n = if not (List.mem n !consts) then consts := n :: !consts in
  let rec expr = function
    | Litmus.Ast.Const n -> add n
    | Litmus.Ast.Addr x -> add (Litmus.Ast.address_of test x)
    | Litmus.Ast.Reg _ -> ()
    | Litmus.Ast.Binop (_, a, b) ->
        expr a;
        expr b
    | Litmus.Ast.Unop (_, a) -> expr a
  in
  let rec instr = function
    | Litmus.Ast.Read _ | Litmus.Ast.Rcu_dereference _ | Litmus.Ast.Fence _
    | Litmus.Ast.Spin_lock _ | Litmus.Ast.Spin_unlock _ ->
        ()
    | Litmus.Ast.Write (_, _, e)
    | Litmus.Ast.Xchg (_, _, _, e)
    | Litmus.Ast.Assign (_, e) ->
        expr e
    | Litmus.Ast.Cmpxchg (_, _, _, e1, e2) ->
        expr e1;
        expr e2
    | Litmus.Ast.Atomic_add_return (_, _, _, e) | Litmus.Ast.Atomic_add (_, e)
      ->
        expr e
    | Litmus.Ast.If (e, a, b) ->
        expr e;
        List.iter instr a;
        List.iter instr b
  in
  Array.iter (List.iter instr) test.threads;
  List.iter (fun (x, _) -> add (Litmus.Ast.init_value test x)) test.init;
  List.iter
    (fun (x, _) -> add (Litmus.Ast.address_of test x))
    (Litmus.Ast.addresses test);
  let rec cond = function
    | Litmus.Ast.Atom (Litmus.Ast.Reg_eq (_, _, v))
    | Litmus.Ast.Atom (Litmus.Ast.Mem_eq (_, v)) ->
        add (Litmus.Ast.cvalue_to_int test v)
    | Litmus.Ast.Not c -> cond c
    | Litmus.Ast.And (a, b) | Litmus.Ast.Or (a, b) ->
        cond a;
        cond b
    | Litmus.Ast.Ctrue -> ()
  in
  cond test.cond;
  List.sort_uniq Int.compare !consts

(* Per-thread candidates under a per-location read-value domain, iterated
   until the set of observed written values stops growing. *)
let thread_candidate_lists test =
  let all = initial_domain test in
  let globals = Litmus.Ast.globals test in
  let value_tbl : (string, Iset.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun x ->
      Hashtbl.replace value_tbl x
        (Iset.add (Litmus.Ast.init_value test x) (Iset.of_list all)))
    globals;
  let domain loc =
    match Hashtbl.find_opt value_tbl loc with
    | Some s -> Iset.to_list s
    | None -> all
  in
  let compute () =
    Array.to_list test.threads
    |> List.map (Sem.thread_candidates test domain)
  in
  let written cands =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun x ->
        Hashtbl.replace tbl x (Iset.singleton (Litmus.Ast.init_value test x)))
      globals;
    List.iter
      (List.iter (fun (c : Sem.candidate) ->
           List.iter
             (fun (pe : Sem.proto_event) ->
               if pe.dir = Event.W then
                 Hashtbl.replace tbl pe.loc
                   (Iset.add pe.v
                      (try Hashtbl.find tbl pe.loc
                       with Not_found -> Iset.empty)))
             c.events))
      cands;
    tbl
  in
  (* Two rounds: the first shrinks the read domains to the values actually
     written per location; the second accounts for writes whose value became
     expressible only once reads were so constrained.  Grow-only from round
     one on, so this terminates. *)
  let rec go prev rounds =
    let tbl = written prev in
    let changed = ref false in
    Hashtbl.iter
      (fun x s ->
        let old = try Hashtbl.find value_tbl x with Not_found -> Iset.empty in
        if not (Iset.equal s old) then changed := true;
        Hashtbl.replace value_tbl x s)
      tbl;
    let next = compute () in
    if !changed && rounds > 0 then go next (rounds - 1) else next
  in
  go (compute ()) 4

let cartesian_product ?(tick = fun () -> ()) lists =
  List.fold_right
    (fun l acc ->
      List.concat_map
        (fun x ->
          List.map
            (fun r ->
              tick ();
              x :: r)
            acc)
        l)
    lists [ [] ]

(* The same product, produced lazily: element [l1_i :: l2_j :: ...] is
   built only when the consumer reaches it, so enumeration can stop (a
   budget trip, an early-terminating consumer) without materialising the
   remainder.  Same element order as {!cartesian_product}. *)
let seq_product ?(tick = fun () -> ()) lists =
  List.fold_right
    (fun l acc ->
      Seq.concat_map
        (fun x ->
          Seq.map
            (fun r ->
              tick ();
              x :: r)
            acc)
        (List.to_seq l))
    lists (Seq.return [])

let c_structures = Obs.Counter.make "exec.structures"
let c_events = Obs.Counter.make "exec.events"
let c_delta_patched = Obs.Counter.make "exec.delta.patched"
let c_delta_full = Obs.Counter.make "exec.delta.full"

(* The per-structure skeleton: everything the enumeration derives from
   one event structure before any rf/co witness is chosen.  Both
   backends consume it — the enumerator takes the cartesian product of
   [sk_rf_choices] with the per-location coherence orders over
   [sk_co_writes], the solver turns the same two fields into one-hot
   rf variables and boolean order constraints. *)
type skeleton = {
  sk_test : Litmus.Ast.t;
  sk_events : Event.t array;
  sk_po : Rel.t;
  sk_addr : Rel.t;
  sk_data : Rel.t;
  sk_ctrl : Rel.t;
  sk_rmw : Rel.t;
  sk_final_regs : (int * string * int) list;
  sk_st : structure;
  sk_rf_choices : (int * int) list list;
      (* per read, in event-id order: its candidate (writer, read)
         edges — same location, same value *)
  sk_co_writes : (string * int * int list) list;
      (* per location, in declaration order: the initialising write
         and the non-init writes (in event-id order) *)
}

let skeletons ?budget (test : Litmus.Ast.t) =
  let per_thread =
    Obs.with_span ~item:test.name "sem" (fun () ->
        thread_candidate_lists test)
  in
  Option.iter Budget.check_time budget;
  let globals = Litmus.Ast.globals test in
  let n_init = List.length globals in
  Seq.map
    (fun (chosen : Sem.candidate list) ->
      Obs.Counter.incr c_structures;
      if Obs.enabled () then
        Obs.Counter.add c_events
          (n_init
          + List.fold_left
              (fun acc (c : Sem.candidate) -> acc + List.length c.events)
              0 chosen);
      Option.iter
        (fun b ->
          Budget.check_events b
            (n_init
            + List.fold_left
                (fun acc (c : Sem.candidate) -> acc + List.length c.events)
                0 chosen))
        budget;
      (* Assemble events: init writes first, then threads in order. *)
      let events = ref [] in
      let addr = ref []
      and data = ref []
      and ctrl = ref []
      and rmw = ref [] in
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
        (fun tid (c : Sem.candidate) ->
          let b = !base in
          List.iteri
            (fun i (pe : Sem.proto_event) ->
              let id = b + i in
              events :=
                {
                  Event.id;
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
      (* ids were handed out in order, newest first in the list *)
      let events = Array.of_list (List.rev !events) in
      (* po: total within each thread; ids follow program order *)
      let po =
        Rel.init (Array.length events) (fun i j ->
            i < j && events.(i).Event.tid >= 0
            && events.(i).Event.tid = events.(j).Event.tid)
      in
      let final_regs =
        List.concat
          (List.mapi
             (fun tid (c : Sem.candidate) ->
               List.map (fun (r, v) -> (tid, r, v)) c.regs)
             chosen)
      in
      (* Enumerate rf: each read takes its value from a same-location,
         same-value write. *)
      let all_reads =
        Array.to_list events |> List.filter Event.is_read
      in
      let all_writes = Array.to_list events |> List.filter Event.is_write in
      let writes_for (r : Event.t) =
        List.filter
          (fun (w : Event.t) -> w.loc = r.loc && w.v = r.v)
          all_writes
      in
      let per_read_writes =
        List.map
          (fun r -> List.map (fun w -> (w.Event.id, r.Event.id)) (writes_for r))
          all_reads
      in
      (* Enumerate co: per location, all total orders of the non-init
         writes, after the initialising write. *)
      let ws_by_loc =
        List.map
          (fun x ->
            ( x,
              Array.to_list events
              |> List.filter (fun (w : Event.t) ->
                     Event.is_write w && (not (Event.is_init w)) && w.loc = x)
              |> List.map (fun (w : Event.t) -> w.id) ))
          globals
      in
      let init_id x =
        let rec find i = if (events.(i)).Event.loc = x then i else find (i + 1) in
        find 0
      in
      {
        sk_test = test;
        sk_events = events;
        sk_po = po;
        sk_addr = Rel.of_list !addr;
        sk_data = Rel.of_list !data;
        sk_ctrl = Rel.of_list !ctrl;
        sk_rmw = Rel.of_list !rmw;
        sk_final_regs = final_regs;
        sk_st = structure_of events po;
        sk_rf_choices = per_read_writes;
        sk_co_writes = List.map (fun (x, ws) -> (x, init_id x, ws)) ws_by_loc;
      })
    (seq_product per_thread)

(* A candidate from a decoded witness: the structure's derived statics
   are shared with every enumerated candidate of the same skeleton. *)
let instantiate sk ~rf ~co =
  build sk.sk_test sk.sk_events sk.sk_st sk.sk_po sk.sk_addr sk.sk_data
    sk.sk_ctrl sk.sk_rmw rf co sk.sk_final_regs

(* Coherence from per-location total orders (event-id lists, co order):
   the initialising write first, then the listed writes in order. *)
let co_of_orders sk orders =
  List.fold_left
    (fun acc (x, init_id, _) ->
      match List.assoc_opt x orders with
      | None | Some [] -> acc
      | Some order ->
          let rec pairs acc = function
            | [] -> acc
            | w :: rest ->
                pairs
                  (List.fold_left
                     (fun acc w' -> Rel.add w w' acc)
                     (Rel.add init_id w acc) rest)
                  rest
          in
          pairs acc order)
    Rel.empty sk.sk_co_writes

let of_test_seq ?budget ?(delta = true) (test : Litmus.Ast.t) =
  let tick () = Option.iter Budget.tick budget in
  Seq.concat_map
    (fun sk ->
      let per_read_writes = sk.sk_rf_choices in
      (* Arithmetic pre-check: the rf choices multiply with the co orders
         (factorial per location); fail before materialising a product
         that cannot fit in the candidate cap. *)
      Option.iter
        (fun b ->
          let n_rf =
            List.fold_left
              (fun acc ws -> Budget.sat_mul acc (List.length ws))
              1 per_read_writes
          in
          let n_co =
            List.fold_left
              (fun acc (_, _, ws) ->
                Budget.sat_mul acc (Budget.sat_fact (List.length ws)))
              1 sk.sk_co_writes
          in
          Budget.claim b (Budget.sat_mul n_rf n_co))
        budget;
      (* Per-location coherence orders are few (factorial in the writes
         per location, which the claim above already bounded), so their
         product is materialised once; the rf choices stream.  The co
         choices are the *outer* loop: within one coherence order,
         enumeration-adjacent candidates differ only in the writers of
         a suffix of the reads (usually just the last one), which is
         what the delta re-evaluation below patches. *)
      let co_choices =
        cartesian_product ~tick
          (List.map
             (fun (_, init_id, ws) ->
               List.map
                 (fun order ->
                   tick ();
                   List.fold_left
                     (fun acc w -> Rel.add init_id w acc)
                     order ws)
                 (Rel.linear_extensions ws))
             sk.sk_co_writes)
      in
      let st = sk.sk_st in
      Seq.concat_map
        (fun co_parts ->
          let co = List.fold_left Rel.union Rel.empty co_parts in
          let coi = Rel.inter co st.st_int_r
          and coe = Rel.inter co st.st_ext_r in
          (* Incremental re-evaluation: rf is functional per read, so
             the from-reads row of a read is exactly the coherence row
             of its writer ((rf⁻¹;co) restricted to one read; the
             diagonal never intersects it, reads not being writes).
             When only some reads change writer between adjacent rf
             choices, patch those rf edges and fr rows instead of
             recomputing the inverse-and-compose from scratch.  [prev]
             holds the previous candidate's rf pair list — positionally
             aligned with [per_read_writes] — and its rf/fr. *)
          let prev = ref None in
          Seq.map
            (fun rf_pairs ->
              Option.iter Budget.count_candidate budget;
              let rf, fr =
                match !prev with
                | Some (prev_pairs, prev_rf, prev_fr) when delta ->
                    Obs.Counter.incr c_delta_patched;
                    let rf = ref prev_rf and fr = ref prev_fr in
                    List.iter2
                      (fun (w, r) (w', _) ->
                        if w <> w' then begin
                          rf := Rel.add w' r (Rel.remove w r !rf);
                          fr := Rel.set_row_from ~src:co w' r !fr
                        end)
                      prev_pairs rf_pairs;
                    (!rf, !fr)
                | _ ->
                    Obs.Counter.incr c_delta_full;
                    let rf = Rel.of_list rf_pairs in
                    (rf, Rel.diff (Rel.seq (Rel.inverse rf) co) st.st_id_r)
              in
              prev := Some (rf_pairs, rf, fr);
              build ~fr ~coi ~coe sk.sk_test sk.sk_events st sk.sk_po
                sk.sk_addr sk.sk_data sk.sk_ctrl sk.sk_rmw rf co
                sk.sk_final_regs)
            (seq_product ~tick per_read_writes))
        (List.to_seq co_choices))
    (skeletons ?budget test)

let of_test ?budget ?delta test = List.of_seq (of_test_seq ?budget ?delta test)

(* ------------------------------------------------------------------ *)
(* Coherence prefilter                                                 *)
(* ------------------------------------------------------------------ *)

(* Sc-per-location: po-loc ∪ rf ∪ co ∪ fr is acyclic.  Every shipped
   model (LK's sc-per-variable axiom, SC and TSO's uniproc check, C11's
   coherence-after-hb) constrains a superset of this relation, so an
   incoherent candidate is inconsistent under all of them and can be
   rejected before the model runs — herd's classic pruning. *)
let coherent t = Rel.is_acyclic (Rel.union t.po_loc t.com)

(* Can candidates [a] and [b] share one batched evaluation pass?  The
   models consume events only through their static shape — id, thread,
   direction, location, annotation — and the static relations; read
   values feed conditions and outcomes, which are always evaluated per
   candidate.  So two candidates are batch-compatible iff their events
   agree up to values and their input statics are equal: every derived
   static (po-loc, int/ext, the event-class sets, crit, ...) is a
   function of exactly those.  This is componentwise equality, hence an
   equivalence: comparing each candidate against its predecessor in the
   stream keeps a whole buffer pairwise compatible. *)
let same_static_event (a : Event.t) (b : Event.t) =
  a.Event.id = b.Event.id && a.Event.tid = b.Event.tid
  && a.Event.dir = b.Event.dir
  && a.Event.annot = b.Event.annot
  && String.equal a.Event.loc b.Event.loc

let static_compatible a b =
  a.events == b.events
  || Array.length a.events = Array.length b.events
     && (try
           Array.iter2
             (fun ea eb ->
               if not (same_static_event ea eb) then raise Exit)
             a.events b.events;
           true
         with Exit -> false)
     && Rel.equal a.po b.po && Rel.equal a.addr b.addr
     && Rel.equal a.data b.data && Rel.equal a.ctrl b.ctrl
     && Rel.equal a.rmw b.rmw

(* The same test over a batch of static-compatible candidates: po-loc
   is witness-independent and equal across the batch (broadcast once
   from the first), only com varies per plane.  Bit c of the result:
   candidate c is coherent. *)
let coherent_mask ~mask (xs : t array) =
  let x0 = xs.(0) in
  let n = Array.length x0.events in
  let po_loc = Rel.Batch.broadcast ~n ~mask x0.po_loc in
  let com = Rel.Batch.of_rels ~n ~mask (Array.map (fun x -> x.com) xs) in
  Rel.Batch.acyclic_mask ~mask (Rel.Batch.union po_loc com)

(* ------------------------------------------------------------------ *)
(* Final states                                                        *)
(* ------------------------------------------------------------------ *)

(* Value of [x] after the execution: the co-maximal write. *)
let final_mem t x =
  let ws =
    Array.to_list t.events
    |> List.filter (fun (w : Event.t) -> Event.is_write w && w.loc = x)
  in
  let maximal =
    List.filter
      (fun (w : Event.t) ->
        not
          (List.exists
             (fun (w' : Event.t) -> Rel.mem w.id w'.id t.co)
             ws))
      ws
  in
  match maximal with
  | [ w ] -> w.v
  | [] -> Litmus.Ast.init_value t.test x
  | w :: _ -> w.v (* co is total per location, so this is unreachable *)

let reg_value t tid r =
  List.find_map
    (fun (tid', r', v) -> if tid = tid' && r = r' then Some v else None)
    t.final_regs

let eval_atom t = function
  | Litmus.Ast.Reg_eq (tid, r, cv) ->
      let expected = Litmus.Ast.cvalue_to_int t.test cv in
      (match reg_value t tid r with Some v -> v = expected | None -> 0 = expected)
  | Litmus.Ast.Mem_eq (x, cv) ->
      final_mem t x = Litmus.Ast.cvalue_to_int t.test cv

let rec eval_cond t = function
  | Litmus.Ast.Atom a -> eval_atom t a
  | Litmus.Ast.Not c -> not (eval_cond t c)
  | Litmus.Ast.And (a, b) -> eval_cond t a && eval_cond t b
  | Litmus.Ast.Or (a, b) -> eval_cond t a || eval_cond t b
  | Litmus.Ast.Ctrue -> true

(* Does the final state of this execution satisfy the test's condition
   body?  (The quantifier is interpreted by the checker, not here.) *)
let satisfies_cond t = eval_cond t t.test.cond

(* The observable outcome of an execution: values of every register and
   location mentioned in the final condition, as a canonical assoc list.
   Two executions with equal outcomes are indistinguishable to the test. *)
type outcome = (string * int) list

let observables (test : Litmus.Ast.t) =
  let acc = ref [] in
  let add x = if not (List.mem x !acc) then acc := x :: !acc in
  let atom = function
    | Litmus.Ast.Reg_eq (tid, r, _) -> add (`Reg (tid, r))
    | Litmus.Ast.Mem_eq (x, _) -> add (`Mem x)
  in
  let rec go = function
    | Litmus.Ast.Atom a -> atom a
    | Litmus.Ast.Not c -> go c
    | Litmus.Ast.And (a, b) | Litmus.Ast.Or (a, b) ->
        go a;
        go b
    | Litmus.Ast.Ctrue -> ()
  in
  go test.cond;
  List.rev !acc

let outcome t : outcome =
  List.map
    (function
      | `Reg (tid, r) ->
          ( Printf.sprintf "%d:%s" tid r,
            Option.value ~default:0 (reg_value t tid r) )
      | `Mem x -> (x, final_mem t x))
    (observables t.test)

let pp_outcome ppf (o : outcome) =
  Fmt.(list ~sep:(any "; ") (pair ~sep:(any "=") string int)) ppf o

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,rf: %a@,co: %a@]"
    Fmt.(array ~sep:(any "@,") Event.pp)
    t.events Rel.pp t.rf Rel.pp t.co
