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

(* crit connects each outermost rcu_read_lock to its matching unlock,
   in one pass: a thread's events are one block of consecutive ids in
   program order, so nesting is a depth counter reset at each block. *)
let crit_of (events : Event.t array) =
  let pairs = ref [] and tid = ref (-1) and depth = ref 0 and outer = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      if e.tid <> !tid then begin
        tid := e.tid;
        depth := 0
      end;
      match e.annot with
      | Event.Rcu_lock when e.tid >= 0 ->
          if !depth = 0 then outer := e.id;
          incr depth
      | Event.Rcu_unlock when e.tid >= 0 ->
          if !depth = 1 then pairs := (!outer, e.id) :: !pairs;
          (* an unmatched unlock is ignored *)
          depth := max 0 (!depth - 1)
      | _ -> ())
    events;
  Rel.of_list !pairs

(* The shape of a structure from its events (values are never read) and
   its threads' runs, whose dependency pairs are re-based to global
   event ids.  [index] numbers the [globals] in declaration order.  The
   class relations are built from each event's thread and location
   ({!Rel.of_classes}); the event sets and each location's writes in one
   pass. *)
let shape_of ~index globals (events : Event.t array) (runs : Sem.candidate list)
    =
  let n = Array.length events in
  let n_init = List.length globals in
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
    go n_init [] runs
  in
  (* init writes are in no thread (tid -1): a class of their own each *)
  let tids = Array.map (fun (e : Event.t) -> e.tid) events in
  let locs =
    Array.map
      (fun (e : Event.t) -> if Event.is_mem e then index e.loc else -1)
      events
  in
  let po = Rel.of_classes `Later tids in
  let loc_r = Rel.of_classes `Same locs in
  let reads = ref Iset.empty and writes = ref Iset.empty in
  let fences = ref Iset.empty and mem = ref Iset.empty in
  let init_ws = ref Iset.empty in
  let co_writes = Array.make n_init [] in
  Array.iter
    (fun (e : Event.t) ->
      let id = e.id in
      (match e.dir with
      | Event.R -> reads := Iset.add id !reads
      | Event.W ->
          writes := Iset.add id !writes;
          if not (Event.is_init e) then
            co_writes.(locs.(id)) <- id :: co_writes.(locs.(id))
      | Event.F -> fences := Iset.add id !fences);
      if Event.is_mem e then mem := Iset.add id !mem;
      if Event.is_init e then init_ws := Iset.add id !init_ws)
    events;
  let universe = Iset.of_range 0 (n - 1) in
  {
    sh_po = po;
    sh_addr = deps (fun c -> c.addr);
    sh_data = deps (fun c -> c.data);
    sh_ctrl = deps (fun c -> c.ctrl);
    sh_rmw = deps (fun c -> c.rmw);
    sh_universe = universe;
    sh_loc_r = loc_r;
    sh_int_r = Rel.of_classes `Same tids;
    sh_ext_r = Rel.of_classes `Other tids;
    sh_id_r = Rel.id_of_set universe;
    sh_po_loc = Rel.inter po loc_r;
    sh_crit = crit_of events;
    sh_reads = !reads;
    sh_writes = !writes;
    sh_fences = !fences;
    sh_mem = !mem;
    sh_init_ws = !init_ws;
    (* the init writes come first, one per global in declaration order *)
    sh_co_writes =
      List.mapi (fun init_id x -> (x, init_id, List.rev co_writes.(init_id))) globals;
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

(* A test's globals as Sem and the enumeration read them, computed once
   per test: {!Litmus.Ast.address_of} re-sorts the globals on every
   call. *)
type globals = {
  names : string array; (* declaration order: the init write of names.(i) is event i *)
  addresses : (string * int) list;
  index : (string, int) Hashtbl.t; (* a name's position in [names] *)
  inits : int array; (* initial values *)
}

let globals_of (test : Litmus.Ast.t) =
  let addresses = Litmus.Ast.addresses test in
  let names = Array.of_list (List.map fst addresses) in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i x -> Hashtbl.replace index x i) names;
  let inits =
    Array.map
      (fun x ->
        Option.fold ~none:0 ~some:(Litmus.Ast.cvalue_in addresses)
          (List.assoc_opt x test.init))
      names
  in
  { names; addresses; index; inits }

(* Initial read-value domain: everything an expression could syntactically
   produce.  It is grown by a fixpoint over observed written values, so
   data-dependent writes (e.g. WRITE_ONCE(y, r1 + 1)) are covered. *)
let domain_of (test : Litmus.Ast.t) g =
  let consts = ref [ 0; 1 ] in
  let add n = if not (List.mem n !consts) then consts := n :: !consts in
  let rec expr = function
    | Litmus.Ast.Const n -> add n
    | Litmus.Ast.Addr x -> add (Litmus.Ast.address_in g.addresses x)
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
  List.iter (fun (x, _) -> add g.inits.(Hashtbl.find g.index x)) test.init;
  List.iter (fun (_, a) -> add a) g.addresses;
  let rec cond = function
    | Litmus.Ast.Atom (Litmus.Ast.Reg_eq (_, _, v))
    | Litmus.Ast.Atom (Litmus.Ast.Mem_eq (_, v)) ->
        add (Litmus.Ast.cvalue_in g.addresses v)
    | Litmus.Ast.Not c -> cond c
    | Litmus.Ast.And (a, b) | Litmus.Ast.Or (a, b) ->
        cond a;
        cond b
    | Litmus.Ast.Ctrue -> ()
  in
  cond test.cond;
  List.sort_uniq Int.compare !consts

let initial_domain test = domain_of test (globals_of test)

(* Per-thread candidates under a per-location read-value domain, iterated
   until the set of observed written values stops growing.  The first
   round usually only shrinks the domains to the values actually
   written; the second accounts for writes whose value became
   expressible only once reads were so constrained.  Grow-only from
   round one on, so this terminates.  Domains that did not change would
   give [prev] again. *)
let candidate_lists (test : Litmus.Ast.t) g =
  let all = Iset.of_list (domain_of test g) in
  let sets = Array.map (fun v -> Iset.add v all) g.inits in
  let lists = Array.map Iset.elements sets in
  let domain loc = lists.(Hashtbl.find g.index loc) in
  let compute () =
    Array.to_list test.threads
    |> List.map (Sem.thread_candidates ~addresses:g.addresses domain)
  in
  let written cands =
    let w = Array.map Iset.singleton g.inits in
    List.iter
      (List.iter (fun (c : Sem.candidate) ->
           List.iter
             (fun (pe : Sem.proto_event) ->
               if pe.dir = Event.W then begin
                 let i = Hashtbl.find g.index pe.loc in
                 w.(i) <- Iset.add pe.v w.(i)
               end)
             c.events))
      cands;
    w
  in
  let rec go prev rounds =
    let w = written prev in
    if Array.for_all2 Iset.equal w sets then prev
    else begin
      Array.iteri
        (fun i s ->
          sets.(i) <- s;
          lists.(i) <- Iset.elements s)
        w;
      let next = compute () in
      if rounds > 0 then go next (rounds - 1) else next
    end
  in
  go (compute ()) 4

let thread_candidate_lists test = candidate_lists test (globals_of test)

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

(* One thread run with what deciding a structure reads of it, summarised
   once per test.  Accesses are (global index, local event id, value),
   in program order. *)
type run = {
  ru_cand : Sem.candidate;
  ru_shape : int; (* its number_shapes number *)
  ru_n : int; (* events *)
  ru_regs : (int * string * int) list; (* (tid, register, value) *)
  ru_reads : (int * int * int) list;
  ru_writes : (int * int * int) list;
}

let runs_of g tid cands =
  List.map
    (fun (shape, (c : Sem.candidate)) ->
      let reads = ref [] and writes = ref [] in
      List.iteri
        (fun i (pe : Sem.proto_event) ->
          match pe.dir with
          | Event.R -> reads := (Hashtbl.find g.index pe.loc, i, pe.v) :: !reads
          | Event.W ->
              writes := (Hashtbl.find g.index pe.loc, i, pe.v) :: !writes
          | Event.F -> ())
        c.events;
      {
        ru_cand = c;
        ru_shape = shape;
        ru_n = List.length c.events;
        ru_regs = List.map (fun (r, v) -> (tid, r, v)) c.regs;
        ru_reads = List.rev !reads;
        ru_writes = List.rev !writes;
      })
    (number_shapes cands)

(* What the structures of one enumeration share: the test, its globals
   with their init writes, and each shape built so far, by the tuple of
   its threads' shape numbers. *)
type enumeration = {
  en_test : Litmus.Ast.t;
  en_globals : globals;
  en_init_events : Event.t array;
  en_shapes : (int list, shape) Hashtbl.t;
}

(* One event structure before it is built: a run per thread, and what
   the condition gate, deadness and the candidate claim read. *)
type structure = {
  st_en : enumeration;
  st_runs : run list; (* thread order *)
  st_n_events : int;
  st_final_regs : (int * string * int) list;
  st_writes : (int * int) list array;
      (* per global: the non-init writes as (event id, value), id order *)
  st_n_writers : int list;
      (* per read, in event-id order: its same-value writers, the init
         write included *)
}

let structure_of en runs =
  let g = en.en_globals in
  let writes = Array.make (Array.length g.names) [] in
  let base = ref (Array.length g.names) in
  List.iter
    (fun r ->
      let b = !base in
      List.iter
        (fun (i, id, v) -> writes.(i) <- (b + id, v) :: writes.(i))
        r.ru_writes;
      base := b + r.ru_n)
    runs;
  Array.iteri (fun i ws -> writes.(i) <- List.rev ws) writes;
  let n_writers (i, _, v) =
    List.fold_left
      (fun k (_, v') -> if v' = v then k + 1 else k)
      (if g.inits.(i) = v then 1 else 0)
      writes.(i)
  in
  {
    st_en = en;
    st_runs = runs;
    st_n_events = !base;
    st_final_regs = List.concat_map (fun r -> r.ru_regs) runs;
    st_writes = writes;
    st_n_writers = List.concat_map (fun r -> List.map n_writers r.ru_reads) runs;
  }

(* A structure's shape is the tuple of its threads' shape numbers: the
   thread partition and every event id follow from the per-thread event
   lists, so equal tuples give equal statics, and unequal ones unequal
   statics ({!static_compatible}).  Each tuple's shape is built on the
   first of its structures an engine builds.  The sem span covers the
   runs and their summaries. *)
let structures ?budget (test : Litmus.Ast.t) =
  let g, per_thread =
    Obs.with_span ~item:test.name "sem" (fun () ->
        let g = globals_of test in
        (g, List.mapi (runs_of g) (candidate_lists test g)))
  in
  Option.iter Budget.check_time budget;
  let en =
    {
      en_test = test;
      en_globals = g;
      en_init_events =
        Array.mapi
          (fun i x ->
            {
              Event.id = i;
              tid = -1;
              dir = Event.W;
              loc = x;
              v = g.inits.(i);
              annot = Event.Init;
            })
          g.names;
      en_shapes = Hashtbl.create 8;
    }
  in
  Seq.map
    (fun runs ->
      let st = structure_of en runs in
      Obs.Counter.incr c_structures;
      Obs.Counter.add c_events st.st_n_events;
      Option.iter (fun b -> Budget.check_events b st.st_n_events) budget;
      st)
    (seq_product per_thread)

let structure_regs st = st.st_final_regs

let structure_writes st x =
  st.st_writes.(Hashtbl.find st.st_en.en_globals.index x)

(* a read with no same-value writer: no candidate at all *)
let dead st = List.mem 0 st.st_n_writers

(* The rf choices multiply with the co orders, factorial per location;
   saturating. *)
let claim st =
  let n_rf = List.fold_left Budget.sat_mul 1 st.st_n_writers in
  let n_co =
    Array.fold_left
      (fun acc ws -> Budget.sat_mul acc (Budget.sat_fact (List.length ws)))
      1 st.st_writes
  in
  Budget.sat_mul n_rf n_co

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

(* every slot of a structure's events array is overwritten *)
let no_event =
  { Event.id = -1; tid = -1; dir = Event.F; loc = ""; v = 0; annot = Event.Init }

(* Build a structure: its events (init writes first, then the threads in
   order; ids follow), its shape, and its rf choices — each read takes
   its value from a same-location, same-value write, in event-id order
   (the init write first). *)
let skeleton st =
  let en = st.st_en in
  let g = en.en_globals in
  let n_init = Array.length g.names in
  let events = Array.make st.st_n_events no_event in
  Array.blit en.en_init_events 0 events 0 n_init;
  let rf_choices = ref [] in
  ignore
    (List.fold_left
       (fun (tid, base) r ->
         List.iteri
           (fun i (pe : Sem.proto_event) ->
             events.(base + i) <-
               {
                 Event.id = base + i;
                 tid;
                 dir = pe.dir;
                 loc = pe.loc;
                 v = pe.v;
                 annot = pe.annot;
               })
           r.ru_cand.events;
         List.iter
           (fun (i, id, v) ->
             let r = base + id in
             let ws =
               List.filter_map
                 (fun (w, v') -> if v' = v then Some (w, r) else None)
                 st.st_writes.(i)
             in
             rf_choices :=
               (if g.inits.(i) = v then (i, r) :: ws else ws) :: !rf_choices)
           r.ru_reads;
         (tid + 1, base + r.ru_n))
       (0, n_init) st.st_runs);
  let key = List.map (fun r -> r.ru_shape) st.st_runs in
  let sh =
    match Hashtbl.find_opt en.en_shapes key with
    | Some sh -> sh
    | None ->
        let sh =
          shape_of
            ~index:(Hashtbl.find g.index)
            (Array.to_list g.names) events
            (List.map (fun r -> r.ru_cand) st.st_runs)
        in
        Obs.Counter.incr c_shapes;
        Hashtbl.add en.en_shapes key sh;
        sh
  in
  {
    sk_test = en.en_test;
    sk_shape = sh;
    sk_events = events;
    sk_final_regs = st.st_final_regs;
    sk_rf_choices = List.rev !rf_choices;
  }

let skeletons ?budget test = Seq.map skeleton (structures ?budget test)

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
let asserted_cond st =
  let test = st.st_en.en_test and g = st.st_en.en_globals in
  let cvalue = Litmus.Ast.cvalue_in g.addresses in
  let final_is x v =
    let i = Hashtbl.find g.index x in
    match st.st_writes.(i) with
    | [] -> Known (g.inits.(i) = v)
    | ws ->
        (* the init write is co-first, so never final here *)
        if not (List.exists (fun (_, v') -> v' = v) ws) then Known false
        else if List.compare_length_with ws 1 = 0 then Known true
        else Final (List.map fst ws, v)
  in
  let atom = function
    | Litmus.Ast.Reg_eq (tid, r, cv) ->
        let v =
          List.find_map
            (fun (tid', r', v) -> if tid = tid' && r = r' then Some v else None)
            st.st_final_regs
        in
        Known (Option.value ~default:0 v = cvalue cv)
    | Litmus.Ast.Mem_eq (x, cv) -> final_is x (cvalue cv)
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
   structures the condition gate leaves open.  Every structure is
   counted (the event cap) before it is decided, and claimed against
   the candidate cap only once it is known to be enumerated: a dead
   structure has no candidate, and a refuted one none the verdict
   stream reads.  Only the structures whose candidates are enumerated
   are built. *)
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
    (fun st ->
      if dead st then Seq.empty
      else if gated && asserted_cond st = Known false then begin
        Obs.Counter.incr c_cond_refuted;
        Seq.empty
      end
      else begin
        (* Arithmetic pre-check: fail before materialising a product
           that cannot fit in the candidate cap. *)
        Option.iter (fun b -> Budget.claim b (claim st)) budget;
        let sk = skeleton st in
        (* The co choices are the *outer* loop, the rf choices stream. *)
        Seq.concat_map
          (fun (co, coi, coe) ->
            Seq.map
              (fun rf_pairs ->
                Option.iter Budget.count_candidate budget;
                build ~coi ~coe sk.sk_test sk.sk_events sk.sk_shape
                  (Rel.of_list rf_pairs) co sk.sk_final_regs)
              (seq_product ~tick sk.sk_rf_choices))
          (List.to_seq (co_choices sk.sk_shape))
      end)
    (structures ?budget test)

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

(* Do [a] and [b] have the same statics?  The models consume events
   only through their static shape — id, thread, direction, location,
   annotation — and the static relations; read values feed conditions
   and outcomes, which are evaluated per candidate.  Every derived
   static (po-loc, int/ext, the event-class sets, crit, ...) is a
   function of exactly those, so this componentwise equality is what
   sharing one shape means; the tests hold [shape] identity to it. *)
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

(* Kept for lkbench's trace replay until it reads lib/obs: {!coherent}
   over the candidates [mask] selects, as a bit mask. *)
let coherent_mask ~mask (xs : t array) =
  let bits = ref 0 in
  Array.iteri
    (fun c x ->
      if mask land (1 lsl c) <> 0 && coherent x then
        bits := !bits lor (1 lsl c))
    xs;
  !bits

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
