(* The operational weak-memory machine of machine.mli, run on a slot form
   of the program built once per test by [compile]: locations (globals,
   array cells, address-table targets), registers and mutexes are
   numbered, [&x] and pointers resolve through int tables, and each
   statement carries the registers it uses or defines.  A run keeps memory
   values and versions, registers, coherence floors and the Alpha snapshot
   in int arrays. *)

(* ------------------------------------------------------------------ *)
(* The slot form                                                       *)
(* ------------------------------------------------------------------ *)

type expr =
  | Int of int
  | Reg of int
  | Tid
  | No_addr of string (* &x of a global outside the address table *)
  | Bin of Litmus.Ast.binop * expr * expr
  | Un of Litmus.Ast.unop * expr

type loc =
  | Slot of int
  | Cell of string * int array * expr * int list
      (* array name, its cells' slots, the index and the index's registers *)
  | Ptr of int (* a register holding an address *)

type stmt = { op : op; touches : int list (* registers used or defined *) }

and op =
  | Read of bool * int * loc (* acquire?, destination register *)
  | Write of bool * loc * expr (* release? *)
  | Fence of Litmus.Ast.fence_kind
  | Xchg of int * loc * expr
  | Cmpxchg of int * loc * expr * expr
  | Atomic_add of int * loc * expr (* destination register, or -1 *)
  | Assign of int * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Mutex_lock of int
  | Mutex_unlock of int
  | Sleep
  | Skip
  | Call_rcu of stmt list
  | Rcu_barrier

type prog = {
  code : stmt list array; (* per program thread *)
  slot_names : string array;
  init_v : int array;
  init_ver : int array; (* -1: a location neither initialised nor written *)
  reg_names : string array;
  n_mutexes : int;
  addr_vals : int array; (* the address table: address -> slot *)
  addr_slots : int array;
}

let skip = { op = Skip; touches = [] }

(* Numbers names in order of first sight; [names ()] lists them so far. *)
let numbering () =
  let tbl = Hashtbl.create 16 and names = ref [] in
  let number x =
    match Hashtbl.find_opt tbl x with
    | Some k -> k
    | None ->
        names := x :: !names;
        Hashtbl.add tbl x (Hashtbl.length tbl);
        Hashtbl.length tbl - 1
  in
  (number, fun () -> Array.of_list (List.rev !names))

let compile (p : Kir.program) =
  let slot, slot_names = numbering () and reg, reg_names = numbering () in
  let mutex, mutex_names = numbering () in
  let cells =
    List.map
      (fun (x, n) -> (x, Array.init n (fun i -> slot (Printf.sprintf "%s[%d]" x i))))
      p.arrays
  in
  let rec expr = function
    | Kir.Int n -> Int n
    | Kir.Reg r -> Reg (reg r)
    | Kir.Tid -> Tid
    | Kir.Addr x -> (
        match List.assoc_opt x p.addr_table with Some a -> Int a | None -> No_addr x)
    | Kir.Bin (op, a, b) -> Bin (op, expr a, expr b)
    | Kir.Un (op, a) -> Un (op, expr a)
  in
  let rec regs = function
    | Int _ | Tid | No_addr _ -> []
    | Reg r -> [ r ]
    | Bin (_, a, b) -> regs a @ regs b
    | Un (_, a) -> regs a
  in
  let loc = function
    | Kir.Var x -> Slot (slot x)
    | Kir.Arr (x, e) ->
        let e = expr e in
        Cell (x, Option.value ~default:[||] (List.assoc_opt x cells), e, regs e)
    | Kir.Deref r -> Ptr (reg r)
  in
  let loc_regs = function Slot _ -> [] | Cell (_, _, _, rs) -> rs | Ptr r -> [ r ] in
  let rec stmt s =
    let op =
      match s with
      | Kir.Read (a, r, l) -> Read (a = Litmus.Ast.R_acquire, reg r, loc l)
      | Kir.Write (a, l, e) -> Write (a = Litmus.Ast.W_release, loc l, expr e)
      | Kir.Fence f -> Fence f
      | Kir.Xchg (_, r, l, e) -> Xchg (reg r, loc l, expr e)
      | Kir.Cmpxchg (_, r, l, a, b) -> Cmpxchg (reg r, loc l, expr a, expr b)
      | Kir.Atomic_add (_, r, l, e) ->
          Atomic_add (Option.fold ~none:(-1) ~some:reg r, loc l, expr e)
      | Kir.Assign (r, e) -> Assign (reg r, expr e)
      | Kir.If (e, a, b) -> If (expr e, List.map stmt a, List.map stmt b)
      | Kir.While (e, body) -> While (expr e, List.map stmt body)
      | Kir.Mutex_lock m -> Mutex_lock (mutex m)
      | Kir.Mutex_unlock m -> Mutex_unlock (mutex m)
      | Kir.Sleep -> Sleep
      | Kir.Skip -> Skip
      | Kir.Call_rcu body -> Call_rcu (List.map stmt body)
      | Kir.Rcu_barrier -> Rcu_barrier
    in
    let touches =
      match op with
      | Assign (d, e) -> d :: regs e
      | Write (_, l, e) -> loc_regs l @ regs e
      | Read (_, d, l) | Xchg (d, l, _) | Cmpxchg (d, l, _, _) -> d :: loc_regs l
      | Atomic_add (d, l, _) -> if d >= 0 then d :: loc_regs l else loc_regs l
      | If (e, _, _) | While (e, _) -> regs e
      | _ -> []
    in
    { op; touches }
  in
  let code = Array.of_list (List.map (List.map stmt) p.threads) in
  let addr_slots = Array.of_list (List.map (fun (x, _) -> slot x) p.addr_table) in
  let init = List.map (fun (x, v) -> (slot x, v)) p.init in
  let n = Array.length (slot_names ()) in
  let init_v = Array.make n 0 and init_ver = Array.make n (-1) in
  (* as initialised memory: the globals, then every array cell at 0 *)
  let set (k, v) = init_v.(k) <- v; init_ver.(k) <- 0 in
  List.iter set init;
  List.iter (fun (_, c) -> Array.iter (fun k -> set (k, 0)) c) cells;
  {
    code;
    slot_names = slot_names ();
    init_v;
    init_ver;
    reg_names = reg_names ();
    n_mutexes = Array.length (mutex_names ());
    addr_vals = Array.of_list (List.map snd p.addr_table);
    addr_slots;
  }

type entry = { slot : int; v : int; release : bool; group : int }

type wait = (int * int) list (* (tid, epoch) of the readers as a GP began *)

type thread = {
  tid : int;
  regs : int array;
  written : bool array; (* registers assigned so far *)
  floors : int array; (* per-location coherence floor *)
  stale_v : int array; (* Alpha snapshot: values and versions *)
  stale_ver : int array;
  mutable conts : stmt list;
  mutable buf : entry list; (* oldest first *)
  mutable group : int;
  mutable nesting : int; (* native RCU read-side nesting *)
  mutable epoch : int; (* bumped at each outermost rcu_read_unlock *)
  mutable waiting : wait option;
  mutable stall : int; (* remaining steps of a preemption / msleep stall *)
}

type state = {
  prog : prog;
  arch : Arch.t;
  rng : Random.State.t;
  mem_v : int array;
  mem_ver : int array; (* -1: absent *)
  mutable version : int;
  holders : int array; (* mutex holder, -1 when free *)
  threads : thread array; (* program threads plus one callback thread *)
  mutable cb_queue : (wait * stmt list) list; (* pending call_rcu, FIFO *)
  mutable steps : int;
}

exception Stuck of string

let rec eval t = function
  | Int n -> n
  | Reg r -> t.regs.(r)
  | Tid -> t.tid
  | No_addr x -> raise (Stuck ("no address for global " ^ x))
  | Bin (op, a, b) -> Exec.Sem.eval_binop op (eval t a) (eval t b)
  | Un (Litmus.Ast.Neg, a) -> -eval t a
  | Un (Litmus.Ast.Lnot, a) -> if eval t a = 0 then 1 else 0

let set_reg t r v =
  t.regs.(r) <- v;
  t.written.(r) <- true

let slot_of st t = function
  | Slot k -> k
  | Cell (x, cells, e, _) ->
      let i = eval t e and n = Array.length cells in
      if i < 0 || i >= n then raise (Stuck (Printf.sprintf "index %d outside %s[%d]" i x n));
      cells.(i)
  | Ptr r -> (
      let p = st.prog and a = t.regs.(r) in
      match Array.find_index (Int.equal a) p.addr_vals with
      | Some i -> p.addr_slots.(i)
      | None -> raise (Stuck (Printf.sprintf "bad pointer %d in %s" a p.reg_names.(r))))

let commit st t k v =
  st.version <- st.version + 1;
  st.mem_v.(k) <- v;
  st.mem_ver.(k) <- st.version;
  t.floors.(k) <- st.version

let refresh_stale st t =
  if st.arch.alpha_stale then begin
    Array.blit st.mem_v 0 t.stale_v 0 (Array.length st.mem_v);
    Array.blit st.mem_ver 0 t.stale_ver 0 (Array.length st.mem_ver)
  end

(* The newest buffered write to slot [k]. *)
let rec forwarded k = function
  | [] -> None
  | e :: rest -> (
      match forwarded k rest with None when e.slot = k -> Some e.v | r -> r)

(* A read: own store buffer first, then (on Alpha, possibly) the stale
   snapshot, then memory.  The coherence floor guarantees po-loc order. *)
let do_read st t k =
  match forwarded k t.buf with
  | Some v -> v
  | None ->
      let floor = t.floors.(k) in
      let stale =
        st.arch.alpha_stale
        && Random.State.float st.rng 1.0 < st.arch.p_stale
        && t.stale_ver.(k) >= floor
      in
      t.floors.(k) <- (if stale then t.stale_ver.(k) else max floor st.mem_ver.(k));
      if stale then t.stale_v.(k) else st.mem_v.(k)

(* Indices of drainable entries: a release only from the head, any other
   entry past older ones to other locations in its smp_wmb group. *)
let drainable st t =
  match t.buf with
  | [] -> []
  | _ when st.arch.fifo_drain -> [ 0 ]
  | buf ->
      let rec go k older acc = function
        | [] -> List.rev acc
        | e :: rest ->
            let ok =
              (not (e.release && k > 0))
              && List.for_all (fun e' -> e'.slot <> e.slot && e'.group = e.group) older
            in
            go (k + 1) (e :: older) (if ok then k :: acc else acc) rest
      in
      go 0 [] [] buf

let drain_random st t =
  match drainable st t with
  | [] -> false
  | ks ->
      let k = List.nth ks (Random.State.int st.rng (List.length ks)) in
      let e = List.nth t.buf k in
      commit st t e.slot e.v;
      t.buf <- List.filteri (fun i _ -> i <> k) t.buf;
      true

(* ------------------------------------------------------------------ *)
(* Early reads (prefetching)                                           *)
(* ------------------------------------------------------------------ *)

let blocked_by blocked = function
  | Slot _ -> false
  | Cell (_, _, _, rs) -> List.exists (fun u -> List.mem u blocked) rs
  | Ptr r -> List.mem r blocked

(* A prefetched read must not interfere with uses of its target register
   by the skipped-over prefix. *)
let register_free t j r =
  let rec check i = function
    | s :: rest when i < j -> (not (List.mem r s.touches)) && check (i + 1) rest
    | _ -> true
  in
  check 0 t.conts

(* Read statements eligible for early execution, latest first: scan the
   current straight-line window, stopping at anything that orders later
   reads.  [blocked]: registers whose value is not available in program
   order. *)
let prefetch_candidates st t =
  let rec scan i blocked seen acc = function
    | [] -> acc
    | s :: rest -> (
        match s.op with
        | Skip | Sleep -> scan (i + 1) blocked seen acc rest
        | Assign (r, _) ->
            (* the assignment has not executed: r's new value is not
               available to anything hoisted above it *)
            scan (i + 1) (r :: blocked) seen acc rest
        | Fence Litmus.Ast.F_wmb ->
            scan (i + 1) blocked seen acc rest (* wmb orders writes only *)
        | Fence _ -> acc (* every other fence blocks later reads here *)
        | Write (_, loc, _) -> (
            (* reads may pass a plain or release write to another location *)
            if blocked_by blocked loc then acc
            else
              match slot_of st t loc with
              | k -> scan (i + 1) blocked (k :: seen) acc rest
              | exception Stuck _ -> acc)
        | Read (acquire, r, loc) -> (
            if blocked_by blocked loc then
              (* address depends on an earlier read: cannot go early; an
                 acquire additionally stops everything behind it *)
              if acquire then acc else scan (i + 1) (r :: blocked) seen acc rest
            else
              match slot_of st t loc with
              | exception Stuck _ -> acc
              | k ->
                  let acc =
                    if i > 0 && (not (List.mem k seen)) && register_free t i r
                    then (i, r, k) :: acc
                    else acc
                  in
                  (* nothing moves above an acquire: stop *)
                  if acquire then acc
                  else scan (i + 1) (r :: blocked) (k :: seen) acc rest)
        | Xchg _ | Cmpxchg _ | Atomic_add _ | If _ | While _ | Mutex_lock _
        | Mutex_unlock _ | Call_rcu _ | Rcu_barrier ->
            acc)
  in
  scan 0 [] [] [] t.conts

let rec skip_nth j = function
  | [] -> []
  | s :: rest -> if j = 0 then skip :: rest else s :: skip_nth (j - 1) rest

let try_prefetch st t =
  match prefetch_candidates st t with
  | [] -> false
  | cands ->
      let j, r, k = List.nth cands (Random.State.int st.rng (List.length cands)) in
      set_reg t r (do_read st t k);
      t.conts <- skip_nth j t.conts;
      true

(* Statements that first drain the whole store buffer. *)
let drains = function
  | Fence Litmus.Ast.(F_mb | F_rcu_unlock | F_sync_rcu)
  | Call_rcu _ | Rcu_barrier | Xchg _ | Cmpxchg _ | Atomic_add _ | Mutex_unlock _ ->
      true
  | _ -> false

let callback st = st.threads.(Array.length st.threads - 1)

(* The threads other than [t] inside a read-side critical section. *)
let readers st t =
  Array.fold_right
    (fun t' acc -> if t'.tid <> t.tid && t'.nesting > 0 then (t'.tid, t'.epoch) :: acc else acc)
    st.threads []

(* Execute the head statement of [t] if it can make progress now. *)
let exec_head st t =
  match t.conts with
  | [] -> ()
  | s :: _ when t.buf <> [] && drains s.op -> ignore (drain_random st t)
  | s :: rest ->
      t.conts <-
        (match s.op with
        | Skip -> rest
        | Sleep (* msleep: deschedule for a while *) ->
            t.stall <- 20 + Random.State.int st.rng 100;
            rest
        | Assign (r, e) -> set_reg t r (eval t e); rest
        | Read (acquire, r, loc) ->
            let k = slot_of st t loc in
            set_reg t r (do_read st t k);
            if acquire then refresh_stale st t;
            rest
        | Write (release, loc, e) ->
            let k = slot_of st t loc in
            let v = eval t e in
            if st.arch.store_buffer then
              t.buf <- t.buf @ [ { slot = k; v; release; group = t.group } ]
            else commit st t k v;
            rest
        | Fence Litmus.Ast.F_wmb -> t.group <- t.group + 1; rest
        | Fence Litmus.Ast.(F_rmb | F_rb_dep | F_mb) -> refresh_stale st t; rest
        | Fence Litmus.Ast.F_rcu_lock ->
            t.nesting <- t.nesting + 1;
            refresh_stale st t;
            rest
        | Fence Litmus.Ast.F_rcu_unlock ->
            t.nesting <- max 0 (t.nesting - 1);
            if t.nesting = 0 then t.epoch <- t.epoch + 1;
            rest
        | Fence Litmus.Ast.F_sync_rcu -> t.waiting <- Some (readers st t); rest
        | Call_rcu body ->
            (* publish the callback: release semantics, then defer it until
               every current read-side critical section has ended *)
            st.cb_queue <- st.cb_queue @ [ (readers st t, body) ];
            rest
        | Rcu_barrier ->
            (* wait until every pending callback has been promoted and the
               callback thread has finished running them *)
            let cb = callback st in
            if st.cb_queue = [] && cb.conts = [] && cb.buf = [] then rest else t.conts
        (* read-modify-writes: all flavours at full strength, atomic on
           memory once the buffer has drained *)
        | Cmpxchg (r, loc, e_old, e_new) ->
            let k = slot_of st t loc in
            let v_old = eval t e_old and v_new = eval t e_new in
            let v_cur = st.mem_v.(k) in
            if v_cur = v_old then commit st t k v_new;
            set_reg t r v_cur;
            refresh_stale st t;
            rest
        | Atomic_add (r, loc, e) ->
            let k = slot_of st t loc in
            let v_new = st.mem_v.(k) + eval t e in
            commit st t k v_new;
            if r >= 0 then set_reg t r v_new;
            refresh_stale st t;
            rest
        | Xchg (r, loc, e) ->
            let k = slot_of st t loc in
            let v_new = eval t e in
            let v_old = st.mem_v.(k) in
            commit st t k v_new;
            set_reg t r v_old;
            refresh_stale st t;
            rest
        | If (e, a, b) -> (if eval t e <> 0 then a else b) @ rest
        | While (e, body) -> if eval t e <> 0 then body @ t.conts else rest
        | Mutex_lock m ->
            let h = st.holders.(m) in
            if h >= 0 && h <> t.tid then t.conts
            else begin
              st.holders.(m) <- t.tid;
              refresh_stale st t;
              rest
            end
        | Mutex_unlock m -> st.holders.(m) <- -1; rest)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let gp_done st (w : wait) =
  List.for_all
    (fun (tid, epoch) -> st.threads.(tid).nesting = 0 || st.threads.(tid).epoch > epoch)
    w

let live t = t.conts <> [] || t.buf <> [] || t.waiting <> None

let step_thread st t =
  match t.waiting with
  | Some w ->
      if gp_done st w then begin
        t.waiting <- None;
        refresh_stale st t
      end
  | None ->
      (* the Alpha snapshot drifts: refreshed at random moments, so a
         dependent read may observe memory as of an earlier time *)
      if st.arch.alpha_stale && Random.State.float st.rng 1.0 < 0.2 then
        refresh_stale st t;
      let r = Random.State.float st.rng 1.0 in
      if st.arch.early_reads && r < st.arch.p_prefetch && try_prefetch st t then ()
      else if r < st.arch.p_prefetch +. st.arch.p_drain && drain_random st t then ()
      else if t.conts <> [] then exec_head st t
      else ignore (drain_random st t)

(* The threads in play at a step are the live ones, in tid order, and the
   callback thread while callbacks are pending; when those alone keep it
   in play ([pre]), it comes first, at position -1 of the order. *)
let in_play st t = live t || (st.cb_queue <> [] && t == callback st)
let at st i = if i < 0 then callback st else st.threads.(i)

let runnable st pre i =
  if i < 0 then pre && (callback st).stall = 0
  else st.threads.(i).stall = 0 && live st.threads.(i)

(* A runnable thread, with probability proportional to its weight: the
   weights are summed in scheduling order, and the last runnable thread
   takes whatever rounding leaves over. *)
let pick st weights =
  let pre = st.cb_queue <> [] && not (live (callback st)) in
  let total = ref 0.0 and last = ref 0 in
  for i = -1 to Array.length st.threads - 1 do
    if runnable st pre i then begin
      total := !total +. weights.((at st i).tid);
      last := i
    end
  done;
  let x = Random.State.float st.rng !total in
  let i = ref (-1) and acc = ref 0.0 and picked = ref false in
  while not !picked do
    if runnable st pre !i then begin
      acc := !acc +. weights.((at st !i).tid);
      picked := !i = !last || x < !acc
    end;
    if not !picked then incr i
  done;
  at st !i

type run_result = {
  regs : (int * string * int) list; (* tid, register, value *)
  mem : (string * int) list;
}

let max_steps = 200_000
let c_runs = Obs.Counter.make "hwsim.runs"
let c_steps = Obs.Counter.make "hwsim.steps"
let c_aborted = Obs.Counter.make "hwsim.aborted"

let run ~rng (arch : Arch.t) p =
  let n = Array.length p.code + 1 and n_slots = Array.length p.slot_names in
  let n_regs = Array.length p.reg_names in
  let snapshot () = if arch.alpha_stale then Array.make n_slots 0 else [||] in
  let thread tid =
    {
      tid;
      regs = Array.make n_regs 0;
      written = Array.make n_regs false;
      floors = Array.make n_slots 0;
      stale_v = snapshot ();
      stale_ver = snapshot ();
      conts = (if tid < n - 1 then p.code.(tid) else [] (* the callback thread *));
      buf = []; group = 0; nesting = 0; epoch = 0; waiting = None; stall = 0;
    }
  in
  let st =
    {
      prog = p;
      arch;
      rng;
      mem_v = Array.copy p.init_v;
      mem_ver = Array.copy p.init_ver;
      holders = Array.make p.n_mutexes (-1);
      threads = Array.init n thread;
      version = 0; cb_queue = []; steps = 0;
    }
  in
  Array.iter (refresh_stale st) st.threads;
  let cb = callback st in
  (* Per-run thread speeds, drawn log-uniformly: real machines interleave
     with wildly asymmetric timing (interrupts, frequency scaling), and
     many races only open up when one thread stalls for a long stretch. *)
  let weights = Array.map (fun _ -> exp (Random.State.float rng 4.0)) st.threads in
  let finish outcome =
    Obs.Counter.incr c_runs;
    Obs.Counter.add c_steps st.steps;
    if Option.is_none outcome then Obs.Counter.incr c_aborted;
    outcome
  in
  let rec go () =
    (* callbacks run in order on the dedicated callback thread *)
    (match st.cb_queue with
    | (w, body) :: rest when gp_done st w ->
        cb.conts <- cb.conts @ body;
        st.cb_queue <- rest
    | _ -> ());
    let min_stall = ref max_int in
    for i = 0 to n - 1 do
      let t = st.threads.(i) in
      if in_play st t && t.stall < !min_stall then min_stall := t.stall
    done;
    if !min_stall = max_int then finish (Some st)
    else begin
      (* a step where every thread in play stays stalled draws nothing,
         so a run of them passes in one jump — unless a pending callback
         can be promoted, which takes one step each *)
      let jump =
        match st.cb_queue with
        | _ when !min_stall <= 1 -> 1
        | (w, _) :: _ when gp_done st w -> 1
        | _ -> !min_stall - 1
      in
      st.steps <- st.steps + jump;
      if st.steps > max_steps then begin
        st.steps <- max_steps + 1;
        finish None
      end
      else begin
        for i = 0 to n - 1 do
          let t = st.threads.(i) in
          if t.stall > 0 && in_play st t then t.stall <- t.stall - jump
        done;
        if !min_stall <= 1 then begin
          let t = pick st weights in
          (* preemption: occasionally a thread loses the CPU for a long
             stretch — interrupts and scheduling on a real machine; many
             RCU races only open in such windows *)
          if Random.State.float rng 1.0 < 0.01 then t.stall <- 20 + Random.State.int rng 300
          else step_thread st t
        end;
        go ()
      end
    end
  in
  go ()

let result st =
  let p = st.prog in
  let indices a = List.init (Array.length a) Fun.id in
  let regs t =
    List.filter_map
      (fun r -> if t.written.(r) then Some (t.tid, p.reg_names.(r), t.regs.(r)) else None)
      (indices p.reg_names)
  in
  {
    regs = List.concat_map regs (Array.to_list st.threads);
    mem =
      List.filter_map
        (fun k -> if st.mem_ver.(k) >= 0 then Some (p.slot_names.(k), st.mem_v.(k)) else None)
        (indices p.slot_names);
  }

let observe p observables =
  let read = function
    | `Reg (tid, r) -> (
        match Array.find_index (String.equal r) p.reg_names with
        | Some r when tid >= 0 && tid <= Array.length p.code ->
            fun st -> st.threads.(tid).regs.(r)
        | _ -> Fun.const 0)
    | `Mem x -> (
        match Array.find_index (String.equal x) p.slot_names with
        | Some k -> fun st -> st.mem_v.(k)
        | None -> Fun.const 0)
  in
  let readers = Array.of_list (List.map read observables) in
  fun st -> Array.map (fun f -> f st) readers
