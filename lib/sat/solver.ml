(* A small CDCL core in the MiniSat lineage: two-watched-literal unit
   propagation, first-UIP learning with activity-ordered branching and
   phase saving, Luby-sequence restarts.  Learned clauses are kept for
   the lifetime of the instance — callers solve one instance per
   object, and the conflict budget (enforced through [on_conflict])
   bounds growth.

   Branching takes the unassigned variable of highest activity, ties
   going to the lowest index, from a binary heap.  Assigned variables
   leave the heap lazily (when they surface at the top) and return on
   backtracking, so every unassigned variable is always in it. *)

type lit = int
type outcome = Sat | Unsat

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;
}

(* A clause is its literal array; positions 0 and 1 are the watched
   literals (clauses of length 1 are asserted at level 0 and never
   stored). *)
type clause = lit array

(* Growable array of clauses (a watch list). *)
type vec = { mutable data : clause array; mutable size : int }

let vec_make () = { data = [||]; size = 0 }

let vec_push v c =
  if v.size = Array.length v.data then begin
    let cap = max 4 (2 * Array.length v.data) in
    let d = Array.make cap c in
    Array.blit v.data 0 d 0 v.size;
    v.data <- d
  end;
  v.data.(v.size) <- c;
  v.size <- v.size + 1

type t = {
  mutable nvars : int;
  (* per-variable state, 1-based; index 0 unused *)
  mutable value : int array; (* 0 unassigned, 1 true, -1 false *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array; (* scratch for analyze *)
  (* the order heap: [heap.(0 .. heap_size - 1)], [heap_pos.(v)] the
     slot of [v] or -1 *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;
  (* add_clause scratch: the clause being simplified, and per-variable
     stamps marking the polarity already met in it *)
  mutable buf : lit array;
  mutable mark : int array;
  mutable stamp : int;
  mutable nclauses : int;
  (* per-literal watch lists, indexed by [lidx] *)
  mutable watches : vec array;
  (* assignment trail *)
  mutable trail : lit array;
  mutable trail_len : int;
  mutable trail_lim : int array; (* trail length at each decision level *)
  mutable dlevel : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;
  mutable learnts : clause list;
  stats : stats;
}

let lidx l = (2 * abs l) + if l > 0 then 0 else 1

let create () =
  {
    nvars = 0;
    value = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 None;
    activity = Array.make 16 0.;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    heap = Array.make 16 0;
    heap_size = 0;
    heap_pos = Array.make 16 (-1);
    buf = Array.make 16 0;
    mark = Array.make 16 0;
    stamp = 0;
    nclauses = 0;
    watches = Array.init 32 (fun _ -> vec_make ());
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = Array.make 17 0;
    dlevel = 0;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    learnts = [];
    stats =
      { conflicts = 0; decisions = 0; propagations = 0; restarts = 0;
        learned = 0 };
  }

let grow_int a n d =
  if Array.length a > n then a
  else begin
    let b = Array.make (max (n + 1) (2 * Array.length a)) d in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_any (type e) (a : e array) n (d : e) : e array =
  if Array.length a > n then a
  else begin
    let b = Array.make (max (n + 1) (2 * Array.length a)) d in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* [before t a b]: [a] is branched on before [b] — higher activity,
   then lower index, the choice of a linear scan in index order. *)
let before t a b =
  let x = t.activity.(a) and y = t.activity.(b) in
  x > y || (x = y && a < b)

let heap_set t i v =
  t.heap.(i) <- v;
  t.heap_pos.(v) <- i

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let v = t.heap.(i) and u = t.heap.(p) in
    if before t v u then begin
      heap_set t p v;
      heap_set t i u;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.heap_size then begin
    let r = l + 1 in
    let c =
      if r < t.heap_size && before t t.heap.(r) t.heap.(l) then r else l
    in
    let v = t.heap.(i) and u = t.heap.(c) in
    if before t u v then begin
      heap_set t i u;
      heap_set t c v;
      sift_down t c
    end
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    heap_set t t.heap_size v;
    t.heap_size <- t.heap_size + 1;
    sift_up t (t.heap_size - 1)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_pos.(v) <- -1;
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    heap_set t 0 t.heap.(t.heap_size);
    sift_down t 0
  end;
  v

let new_var t =
  let v = t.nvars + 1 in
  t.nvars <- v;
  t.value <- grow_int t.value v 0;
  t.level <- grow_int t.level v 0;
  t.reason <- grow_any t.reason v None;
  t.activity <- grow_any t.activity v 0.;
  t.phase <- grow_any t.phase v false;
  t.seen <- grow_any t.seen v false;
  t.heap <- grow_int t.heap v 0;
  t.heap_pos <- grow_int t.heap_pos v (-1);
  t.mark <- grow_int t.mark v 0;
  t.trail <- grow_int t.trail v 0;
  t.trail_lim <- grow_int t.trail_lim (v + 1) 0;
  if Array.length t.watches <= lidx (-v) then begin
    let b = Array.init (max (lidx (-v) + 1) (2 * Array.length t.watches))
        (fun i -> if i < Array.length t.watches then t.watches.(i)
                  else vec_make ())
    in
    t.watches <- b
  end;
  heap_insert t v;
  v

let nvars t = t.nvars
let nclauses t = t.nclauses

(* Value of a literal under the current assignment: 1 / -1 / 0. *)
let val_lit t l = if l > 0 then t.value.(l) else - t.value.(-l)

let enqueue t l reason =
  let v = abs l in
  t.value.(v) <- (if l > 0 then 1 else -1);
  t.level.(v) <- t.dlevel;
  t.reason.(v) <- reason;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1;
  t.stats.propagations <- t.stats.propagations + 1

let watch_clause t c =
  vec_push t.watches.(lidx c.(0)) c;
  vec_push t.watches.(lidx c.(1)) c

(* Sort [a.(0 .. n - 1)] in place, by integer value.  Insertion sort:
   clauses are short — nearly all of the encoder's have two or three
   literals. *)
let sort_prefix a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Simplify under the level-0 assignment in one pass over the sorted
   literals: duplicates merge, false literals drop out, and a true
   literal or a complementary pair discharges the clause. *)
let add_clause t lits =
  let rec fill i = function
    | [] -> i
    | l :: rest ->
        if l = 0 || abs l > t.nvars then
          invalid_arg "Sat.Solver.add_clause: literal out of range";
        if i = Array.length t.buf then
          t.buf <- Array.append t.buf (Array.make i 0);
        t.buf.(i) <- l;
        fill (i + 1) rest
  in
  let n = fill 0 lits in
  t.nclauses <- t.nclauses + 1;
  if t.ok then begin
    let buf = t.buf in
    sort_prefix buf n;
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    let k = ref 0 and taut = ref false and i = ref 0 in
    while (not !taut) && !i < n do
      let l = buf.(!i) in
      let v = abs l in
      let s = if l > 0 then stamp else -stamp in
      let x = val_lit t l in
      if x = 1 || t.mark.(v) = -s then taut := true
      else if x = 0 && t.mark.(v) <> s then begin
        t.mark.(v) <- s;
        buf.(!k) <- l;
        incr k
      end;
      incr i
    done;
    if not !taut then
      match !k with
      | 0 -> t.ok <- false
      | 1 -> enqueue t buf.(0) None
      | k -> watch_clause t (Array.sub buf 0 k)
  end

(* Unit propagation.  Returns the conflicting clause, if any. *)
let propagate t =
  let confl = ref None in
  while !confl = None && t.qhead < t.trail_len do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    (* visit the clauses watching ¬p, which just became false *)
    let ws = t.watches.(lidx (-p)) in
    let n = ws.size in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = ws.data.(!i) in
      incr i;
      if c.(0) = -p then begin
        c.(0) <- c.(1);
        c.(1) <- -p
      end;
      if val_lit t c.(0) = 1 then begin
        ws.data.(!j) <- c;
        incr j
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && val_lit t c.(!k) = -1 do incr k done;
        if !k < len then begin
          (* found a new watch; the clause leaves this list *)
          c.(1) <- c.(!k);
          c.(!k) <- -p;
          vec_push t.watches.(lidx c.(1)) c
        end
        else begin
          ws.data.(!j) <- c;
          incr j;
          if val_lit t c.(0) = -1 then begin
            (* conflict: keep the remaining watchers, stop *)
            while !i < n do
              ws.data.(!j) <- ws.data.(!i);
              incr j;
              incr i
            done;
            t.qhead <- t.trail_len;
            confl := Some c
          end
          else enqueue t c.(0) (Some c)
        end
      end
    done;
    ws.size <- !j
  done;
  !confl

(* Scaling can round distinct activities to equal ones, so the heap is
   rebuilt rather than trusted to keep its order. *)
let rescale t =
  for v = 1 to t.nvars do
    t.activity.(v) <- t.activity.(v) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100;
  for i = (t.heap_size / 2) - 1 downto 0 do
    sift_down t i
  done

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then rescale t
  else if t.heap_pos.(v) >= 0 then sift_up t t.heap_pos.(v)

let decay t = t.var_inc <- t.var_inc /. 0.95

(* First-UIP conflict analysis: resolve the conflict clause backwards
   along the trail until exactly one literal of the current decision
   level remains.  Returns the learned clause (asserting literal first)
   and the backjump level. *)
let analyze t confl =
  let learnt = ref [] in
  let btlevel = ref 0 in
  let counter = ref 0 in
  let p = ref 0 in
  let c = ref confl in
  let idx = ref (t.trail_len - 1) in
  let quit = ref false in
  while not !quit do
    let cl = !c in
    let start = if !p = 0 then 0 else 1 in
    for k = start to Array.length cl - 1 do
      let q = cl.(k) in
      let v = abs q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if t.level.(v) >= t.dlevel then incr counter
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    while not t.seen.(abs t.trail.(!idx)) do decr idx done;
    p := t.trail.(!idx);
    decr idx;
    let v = abs !p in
    t.seen.(v) <- false;
    decr counter;
    if !counter > 0 then
      c := (match t.reason.(v) with Some r -> r | None -> assert false)
    else quit := true
  done;
  List.iter (fun q -> t.seen.(abs q) <- false) !learnt;
  (- !p :: !learnt, !btlevel)

let cancel_until t lvl =
  if t.dlevel > lvl then begin
    for i = t.trail_len - 1 downto t.trail_lim.(lvl) do
      let p = t.trail.(i) in
      let v = abs p in
      t.value.(v) <- 0;
      t.phase.(v) <- p > 0;
      t.reason.(v) <- None;
      heap_insert t v
    done;
    t.trail_len <- t.trail_lim.(lvl);
    t.qhead <- t.trail_len;
    t.dlevel <- lvl
  end

let record_learnt t lits btlevel =
  t.stats.learned <- t.stats.learned + 1;
  match lits with
  | [] -> t.ok <- false
  | [ l ] ->
      cancel_until t 0;
      if val_lit t l = -1 then t.ok <- false
      else if val_lit t l = 0 then enqueue t l None
  | first :: _ ->
      cancel_until t btlevel;
      let c = Array.of_list lits in
      (* watch the asserting literal and one literal of the backjump
         level, so the clause wakes up exactly when it must *)
      let k = ref 1 in
      while t.level.(abs c.(!k)) <> btlevel do incr k done;
      let tmp = c.(1) in
      c.(1) <- c.(!k);
      c.(!k) <- tmp;
      watch_clause t c;
      t.learnts <- c :: t.learnts;
      enqueue t first (Some c)

(* The unassigned variable of highest activity, lowest index first;
   0 when every variable is assigned. *)
let rec pick_branch t =
  if t.heap_size = 0 then 0
  else
    let v = heap_pop t in
    if t.value.(v) = 0 then v else pick_branch t

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec go sz seq i =
    if sz < i + 1 then go ((2 * sz) + 1) (seq + 1) i
    else if sz - 1 = i then 1 lsl seq
    else go ((sz - 1) / 2) (seq - 1) (i mod ((sz - 1) / 2))
  in
  go 1 0 i

let restart_base = 64

let solve ?(on_conflict = fun () -> ()) ?(on_decision = fun () -> ())
    ?(on_learnt = fun _ -> ()) ?(on_restart = fun () -> ()) t =
  if not t.ok then Unsat
  else begin
    let result = ref None in
    let since_restart = ref 0 in
    let limit = ref (restart_base * luby t.stats.restarts) in
    while !result = None do
      match propagate t with
      | Some confl ->
          t.stats.conflicts <- t.stats.conflicts + 1;
          incr since_restart;
          if t.dlevel = 0 then begin
            t.ok <- false;
            result := Some Unsat
          end
          else begin
            on_conflict ();
            let learnt, btlevel = analyze t confl in
            on_learnt (List.length learnt);
            record_learnt t learnt btlevel;
            if not t.ok then result := Some Unsat;
            decay t
          end
      | None ->
          if !since_restart >= !limit && t.dlevel > 0 then begin
            t.stats.restarts <- t.stats.restarts + 1;
            on_restart ();
            since_restart := 0;
            limit := restart_base * luby t.stats.restarts;
            cancel_until t 0
          end
          else begin
            let v = pick_branch t in
            if v = 0 then result := Some Sat
            else begin
              t.stats.decisions <- t.stats.decisions + 1;
              on_decision ();
              t.trail_lim.(t.dlevel) <- t.trail_len;
              t.dlevel <- t.dlevel + 1;
              enqueue t (if t.phase.(v) then v else -v) None
            end
          end
    done;
    match !result with Some r -> r | None -> assert false
  end

let value t v = t.value.(v) = 1
let stats t = t.stats
let decision_level t = t.dlevel
let learnt_clauses t = List.rev_map Array.to_list t.learnts
