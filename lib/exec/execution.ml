(* Candidate executions (paper, Section 2): abstract executions
   (E, po, addr, data, ctrl, rmw) paired with execution witnesses (rf, co).
   {!of_test} enumerates every candidate execution of a litmus test; a
   consistency model then decides which are allowed. *)

module Iset = Rel.Iset

(* The statics of one static shape: everything a candidate's models
   read that depends neither on the rf/co witness nor on the values
   reads return.  A shape is the events up to their values (id, thread,
   direction, location, annotation) plus the dependency and rmw pairs;
   event structures that differ only in read values share one shape,
   built on the first of them and shared physically by every skeleton
   and candidate after it. *)
type shape = {
  sh_po : Rel.t;
  sh_addr : Rel.t;
  sh_data : Rel.t;
  sh_ctrl : Rel.t;
  sh_rmw : Rel.t;
  sh_universe : Iset.t;
  sh_loc_r : Rel.t;
  sh_int_r : Rel.t;
  sh_ext_r : Rel.t;
  sh_id_r : Rel.t;
  sh_po_loc : Rel.t;
  sh_crit : Rel.t;
  sh_reads : Iset.t;
  sh_writes : Iset.t;
  sh_fences : Iset.t;
  sh_mem : Iset.t;
  sh_init_ws : Iset.t;
  sh_co_writes : (string * int * int list) list;
      (* per location, in declaration order: the initialising write and
         the non-init writes (in event-id order) *)
}

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
  shape : shape; (* where the witness-independent fields above come from *)
}

let event t id = t.events.(id)
let n_events t = Array.length t.events

let events_where t p =
  Array.to_seq t.events
  |> Seq.filter p
  |> Seq.fold_left (fun acc (e : Event.t) -> Iset.add e.id acc) Iset.empty

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

let set_of events p =
  Array.fold_left
    (fun acc (e : Event.t) -> if p e then Iset.add e.id acc else acc)
    Iset.empty events

(* The shape of a structure from its events (values are never read) and
   its threads' Sem candidates, whose dependency pairs are re-based to
   global event ids. *)
let shape_of globals (events : Event.t array) (chosen : Sem.candidate list) =
  let n = Array.length events in
  let deps field =
    let rec go base acc = function
      | [] -> Rel.of_list acc
      | (c : Sem.candidate) :: rest ->
          go
            (base + List.length c.events)
            (List.rev_append
               (List.map (fun (x, y) -> (base + x, base + y)) (field c))
               acc)
            rest
    in
    go (List.length globals) [] chosen
  in
  let same_thread i j =
    events.(i).Event.tid >= 0 && events.(i).Event.tid = events.(j).Event.tid
  in
  (* po: total within each thread; ids follow program order *)
  let po = Rel.init n (fun i j -> i < j && same_thread i j) in
  let loc_r =
    Rel.init n (fun i j ->
        let e1 = events.(i) and e2 = events.(j) in
        i <> j && Event.is_mem e1 && Event.is_mem e2 && e1.loc = e2.loc)
  in
  {
    sh_po = po;
    sh_addr = deps (fun c -> c.addr);
    sh_data = deps (fun c -> c.data);
    sh_ctrl = deps (fun c -> c.ctrl);
    sh_rmw = deps (fun c -> c.rmw);
    sh_universe = Iset.of_range 0 (n - 1);
    sh_loc_r = loc_r;
    sh_int_r = Rel.init n (fun i j -> i <> j && same_thread i j);
    sh_ext_r = Rel.init n (fun i j -> i <> j && not (same_thread i j));
    sh_id_r = Rel.init n ( = );
    sh_po_loc = Rel.inter po loc_r;
    sh_crit = compute_crit events;
    sh_reads = set_of events Event.is_read;
    sh_writes = set_of events Event.is_write;
    sh_fences = set_of events Event.is_fence;
    sh_mem = set_of events Event.is_mem;
    sh_init_ws = set_of events Event.is_init;
    (* the init writes come first, one per global in declaration order *)
    sh_co_writes =
      List.mapi
        (fun init_id x ->
          ( x,
            init_id,
            Array.to_list events
            |> List.filter (fun (w : Event.t) ->
                   Event.is_write w && (not (Event.is_init w)) && w.loc = x)
            |> List.map (fun (w : Event.t) -> w.id) ))
        globals;
  }

(* fr = rf⁻¹;co minus identity, built row by row: rf gives each read
   exactly one writer, so a read's from-reads row is its writer's
   coherence row.  The identity never meets it: a read is not a write,
   and co relates writes only. *)
let fr_of ~co rf =
  Rel.fold (fun w r fr -> Rel.set_row_from ~src:co w r fr) rf Rel.empty

let build ?coi ?coe test events sh rf co final_regs =
  let int_r = sh.sh_int_r and ext_r = sh.sh_ext_r in
  let fr = fr_of ~co rf in
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
    po = sh.sh_po;
    addr = sh.sh_addr;
    data = sh.sh_data;
    ctrl = sh.sh_ctrl;
    rmw = sh.sh_rmw;
    rf;
    co;
    final_regs;
    universe = sh.sh_universe;
    fr;
    rfi;
    rfe;
    coi;
    coe;
    fri;
    fre;
    com;
    po_loc = sh.sh_po_loc;
    int_r;
    ext_r;
    loc_r = sh.sh_loc_r;
    id_r = sh.sh_id_r;
    reads = sh.sh_reads;
    writes = sh.sh_writes;
    fences = sh.sh_fences;
    mem = sh.sh_mem;
    init_ws = sh.sh_init_ws;
    crit = sh.sh_crit;
    shape = sh;
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
     one on, so this terminates.  Domains that did not change would give
     [prev] again. *)
  let rec go prev rounds =
    let tbl = written prev in
    let changed = ref false in
    Hashtbl.iter
      (fun x s ->
        let old = try Hashtbl.find value_tbl x with Not_found -> Iset.empty in
        if not (Iset.equal s old) then changed := true;
        Hashtbl.replace value_tbl x s)
      tbl;
    if not !changed then prev
    else
      let next = compute () in
      if rounds > 0 then go next (rounds - 1) else next
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
let c_shapes = Obs.Counter.make "exec.shapes"
let c_events = Obs.Counter.make "exec.events"

(* One thread's Sem candidates, each paired with its shape number: equal
   numbers iff equal events up to values and equal dependency and rmw
   pairs.  The pairs are sorted and de-duplicated because [Rel.of_list]
   forgets order and multiplicity, so equal keys are exactly equal
   relations. *)
let number_shapes (cands : Sem.candidate list) =
  let numbers = Hashtbl.create 8 in
  List.map
    (fun (c : Sem.candidate) ->
      let key =
        ( List.map
            (fun (pe : Sem.proto_event) -> (pe.dir, pe.loc, pe.annot))
            c.events,
          List.sort_uniq compare c.addr,
          List.sort_uniq compare c.data,
          List.sort_uniq compare c.ctrl,
          List.sort_uniq compare c.rmw )
      in
      match Hashtbl.find_opt numbers key with
      | Some i -> (i, c)
      | None ->
          let i = Hashtbl.length numbers in
          Hashtbl.add numbers key i;
          (i, c))
    cands

(* The per-structure skeleton: everything the enumeration derives from
   one event structure before any rf/co witness is chosen.  Both
   backends consume it — the enumerator takes the cartesian product of
   [sk_rf_choices] with the per-location coherence orders over the
   shape's writes, the solver turns the same two into one-hot rf
   variables and boolean order constraints. *)
type skeleton = {
  sk_test : Litmus.Ast.t;
  sk_shape : shape;
  sk_events : Event.t array;
  sk_final_regs : (int * string * int) list;
  sk_rf_choices : (int * int) list list;
      (* per read, in event-id order: its candidate (writer, read)
         edges — same location, same value *)
}

let co_writes sk = sk.sk_shape.sh_co_writes

(* A structure's shape is the tuple of its threads' shape numbers: the
   thread partition and every event id follow from the per-thread event
   lists, so equal tuples give equal statics, and unequal ones unequal
   statics ({!static_compatible}).  Each tuple's shape is built on its
   first structure. *)
let skeletons ?budget (test : Litmus.Ast.t) =
  let per_thread =
    Obs.with_span ~item:test.name "sem" (fun () ->
        List.map number_shapes (thread_candidate_lists test))
  in
  Option.iter Budget.check_time budget;
  let globals = Litmus.Ast.globals test in
  let n_init = List.length globals in
  let init_events =
    List.mapi
      (fun i x ->
        {
          Event.id = i;
          tid = -1;
          dir = Event.W;
          loc = x;
          v = Litmus.Ast.init_value test x;
          annot = Event.Init;
        })
      globals
  in
  let shapes = Hashtbl.create 8 in
  Seq.map
    (fun numbered ->
      let chosen = List.map snd numbered in
      let n_events =
        List.fold_left
          (fun acc (c : Sem.candidate) -> acc + List.length c.events)
          n_init chosen
      in
      Obs.Counter.incr c_structures;
      Obs.Counter.add c_events n_events;
      Option.iter (fun b -> Budget.check_events b n_events) budget;
      (* init writes first, then threads in order; ids follow *)
      let thread_events =
        List.concat
          (List.mapi
             (fun tid (c : Sem.candidate) ->
               List.map (fun pe -> (tid, pe)) c.events)
             chosen)
      in
      let events =
        Array.of_list
          (init_events
          @ List.mapi
              (fun i (tid, (pe : Sem.proto_event)) ->
                {
                  Event.id = n_init + i;
                  tid;
                  dir = pe.dir;
                  loc = pe.loc;
                  v = pe.v;
                  annot = pe.annot;
                })
              thread_events)
      in
      let key = List.map fst numbered in
      let sh =
        match Hashtbl.find_opt shapes key with
        | Some sh -> sh
        | None ->
            let sh = shape_of globals events chosen in
            Obs.Counter.incr c_shapes;
            Hashtbl.add shapes key sh;
            sh
      in
      (* rf: each read takes its value from a same-location, same-value
         write, in event-id order (the init write first) *)
      let rf_choices =
        Array.fold_right
          (fun (r : Event.t) acc ->
            if not (Event.is_read r) then acc
            else
              let ws =
                match
                  List.find_opt
                    (fun (x, _, _) -> String.equal x r.loc)
                    sh.sh_co_writes
                with
                | Some (_, init_id, ws) -> init_id :: ws
                | None -> []
              in
              List.filter_map
                (fun w ->
                  if events.(w).Event.v = r.v then Some (w, r.id) else None)
                ws
              :: acc)
          events []
      in
      {
        sk_test = test;
        sk_shape = sh;
        sk_events = events;
        sk_final_regs =
          List.concat
            (List.mapi
               (fun tid (c : Sem.candidate) ->
                 List.map (fun (r, v) -> (tid, r, v)) c.regs)
               chosen);
        sk_rf_choices = rf_choices;
      })
    (seq_product per_thread)

(* A candidate from a decoded witness: the shape's statics are shared
   with every enumerated candidate of the same shape. *)
let instantiate sk ~rf ~co =
  build sk.sk_test sk.sk_events sk.sk_shape rf co sk.sk_final_regs

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
    Rel.empty (co_writes sk)

(* ------------------------------------------------------------------ *)
(* The condition gate                                                  *)
(* ------------------------------------------------------------------ *)

(* The condition over one event structure, in three-valued logic.  The
   structure fixes every register value (an unset register reads 0) and
   much of the final memory: a location with no non-init write keeps
   its initial value, a value no write stores is never final, and a
   lone write is co-last.  [Known b] is a statically decided formula;
   what stays open is a residue over [Final] atoms, which only the
   coherence order decides. *)
type cond3 =
  | Known of bool
  | Final of int list * int
      (* some write of [ws] (a location's non-init writes, at least two)
         storing [v] is co-maximal *)
  | Not3 of cond3
  | And3 of cond3 * cond3
  | Or3 of cond3 * cond3

let not3 = function Known b -> Known (not b) | c -> Not3 c

let and3 a b =
  match (a, b) with
  | Known false, _ | _, Known false -> Known false
  | Known true, c | c, Known true -> c
  | a, b -> And3 (a, b)

let or3 a b =
  match (a, b) with
  | Known true, _ | _, Known true -> Known true
  | Known false, c | c, Known false -> c
  | a, b -> Or3 (a, b)

(* The polarity a verdict asks about — the condition for [exists] and
   [~exists] (both ask whether it is observable), its negation for
   [forall] — evaluated over the structure's constants.  [Known false]
   refutes the structure: none of its candidates can matter to a
   verdict. *)
let asserted_cond sk =
  let test = sk.sk_test in
  let final_is x v =
    match
      List.find_opt (fun (x', _, _) -> String.equal x x') (co_writes sk)
    with
    | None | Some (_, _, []) -> Known (Litmus.Ast.init_value test x = v)
    | Some (_, _, ws) ->
        (* the init write is co-first, so never final here *)
        if not (List.exists (fun w -> sk.sk_events.(w).Event.v = v) ws) then
          Known false
        else if List.compare_length_with ws 1 = 0 then Known true
        else Final (ws, v)
  in
  let atom = function
    | Litmus.Ast.Reg_eq (tid, r, cv) ->
        let v =
          List.find_map
            (fun (tid', r', v) -> if tid = tid' && r = r' then Some v else None)
            sk.sk_final_regs
        in
        Known (Option.value ~default:0 v = Litmus.Ast.cvalue_to_int test cv)
    | Litmus.Ast.Mem_eq (x, cv) -> final_is x (Litmus.Ast.cvalue_to_int test cv)
  in
  let rec go = function
    | Litmus.Ast.Atom a -> atom a
    | Litmus.Ast.Not c -> not3 (go c)
    | Litmus.Ast.And (a, b) -> and3 (go a) (go b)
    | Litmus.Ast.Or (a, b) -> or3 (go a) (go b)
    | Litmus.Ast.Ctrue -> Known true
  in
  let cond = go test.Litmus.Ast.cond in
  match test.Litmus.Ast.quant with
  | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> cond
  | Litmus.Ast.Q_forall -> not3 cond

let c_cond_refuted = Obs.Counter.make "exec.cond_refuted"

(* Every candidate of the test, or with [~gated] only those of the
   structures the condition gate leaves open.  The gate runs after a
   structure is built, counted and claimed, so it moves no event-cap or
   product-size trip. *)
let enumerate ~gated ?budget (test : Litmus.Ast.t) =
  let tick () = Option.iter Budget.tick budget in
  (* Per shape, its coherence choices with their coi/coe, built on the
     first structure of the shape whose candidates are enumerated.
     Per-location orders are few (factorial in the writes per location,
     which the claim below bounds), so the product is materialised. *)
  let co_table = ref [] in
  let co_choices sh =
    match List.assq_opt sh !co_table with
    | Some choices -> choices
    | None ->
        let choices =
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
               sh.sh_co_writes)
          |> List.map (fun co_parts ->
                 let co = List.fold_left Rel.union Rel.empty co_parts in
                 (co, Rel.inter co sh.sh_int_r, Rel.inter co sh.sh_ext_r))
        in
        co_table := (sh, choices) :: !co_table;
        choices
  in
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
              1 (co_writes sk)
          in
          Budget.claim b (Budget.sat_mul n_rf n_co))
        budget;
      (* a read with no same-value writer: no candidate at all *)
      if List.exists (( = ) []) per_read_writes then Seq.empty
      else if gated && asserted_cond sk = Known false then begin
        Obs.Counter.incr c_cond_refuted;
        Seq.empty
      end
      else
        (* The co choices are the *outer* loop, the rf choices stream. *)
        Seq.concat_map
          (fun (co, coi, coe) ->
            Seq.map
              (fun rf_pairs ->
                Option.iter Budget.count_candidate budget;
                build ~coi ~coe sk.sk_test sk.sk_events sk.sk_shape
                  (Rel.of_list rf_pairs) co sk.sk_final_regs)
              (seq_product ~tick per_read_writes))
          (List.to_seq (co_choices sk.sk_shape)))
    (skeletons ?budget test)

let candidates ?budget test = enumerate ~gated:false ?budget test
let of_test_seq ?budget test = enumerate ~gated:true ?budget test
let of_test ?budget test = List.of_seq (candidates ?budget test)

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

(* A register's final value in a (tid, register, value) list; 0 when the
   thread never assigns it. *)
let final_reg regs tid r =
  Option.value ~default:0
    (List.find_map
       (fun (tid', r', v) -> if tid = tid' && r = r' then Some v else None)
       regs)

type observable = [ `Mem of string | `Reg of int * string ]

(* The one two-valued condition evaluator: does [test]'s condition body
   hold when each observable has the final value [value] gives it?
   Candidates, simulator runs and diygen's realisability check all
   decide the condition here. *)
let holds (test : Litmus.Ast.t) (value : observable -> int) =
  let atom = function
    | Litmus.Ast.Reg_eq (tid, r, cv) ->
        value (`Reg (tid, r)) = Litmus.Ast.cvalue_to_int test cv
    | Litmus.Ast.Mem_eq (x, cv) ->
        value (`Mem x) = Litmus.Ast.cvalue_to_int test cv
  in
  let rec go = function
    | Litmus.Ast.Atom a -> atom a
    | Litmus.Ast.Not c -> not (go c)
    | Litmus.Ast.And (a, b) -> go a && go b
    | Litmus.Ast.Or (a, b) -> go a || go b
    | Litmus.Ast.Ctrue -> true
  in
  go test.cond

let value t = function
  | `Reg (tid, r) -> final_reg t.final_regs tid r
  | `Mem x -> final_mem t x

(* Does the final state of this execution satisfy the test's condition
   body?  (The quantifier is interpreted by the checker, not here.) *)
let satisfies_cond t = holds t.test (value t)

(* The observable outcome of an execution: values of every register and
   location mentioned in the final condition, as a canonical assoc list.
   Two executions with equal outcomes are indistinguishable to the test. *)
type outcome = (string * int) list

let observables (test : Litmus.Ast.t) : observable list =
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

let observable_name = function
  | `Reg (tid, r) -> Printf.sprintf "%d:%s" tid r
  | `Mem x -> x

let outcome t : outcome =
  List.map (fun o -> (observable_name o, value t o)) (observables t.test)

let pp_outcome ppf (o : outcome) =
  Fmt.(list ~sep:(any "; ") (pair ~sep:(any "=") string int)) ppf o

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,rf: %a@,co: %a@]"
    Fmt.(array ~sep:(any "@,") Event.pp)
    t.events Rel.pp t.rf Rel.pp t.co
