(* Binary relations over event identifiers, the algebraic substrate of
   axiomatic memory models (herd's kernel).

   The representation is a dense bit matrix over the small integer event
   universe: one bit vector (row) per source event, packed into a single
   int array at 63 bits per word.  Union, intersection, difference and
   relational composition are word-parallel; transitive closure is
   Warshall's algorithm at O(n³/63); acyclicity is a DFS that never
   materialises the closure.  Every operation is persistent — arrays are
   copied, never shared mutably — so the functional interface of the
   original pair-set implementation (retained as {!Reference}) is
   unchanged.

   Capacity is an implementation detail: a relation knows the smallest
   universe [0, n) enclosing every pair ever added, rows grow on demand,
   and all observable behaviour (equality included) is capacity-
   independent. *)

module Iset = Iset
module Reference = Rel_ref

let bpw = 63 (* usable bits in an OCaml int *)

(* Words touched by the word-parallel ops, at op granularity: map2 ops
   charge the result array, composition/closure/acyclicity charge one
   row per row OR-ed or visited.  Self-guarded: free when Obs is off. *)
let words_touched = Obs.Counter.make "rel.words"

type t = {
  n : int; (* row capacity: both endpoints of every pair are < n *)
  w : int; (* words per row: (n + bpw - 1) / bpw *)
  bits : int array; (* n * w words; row i occupies [i*w, (i+1)*w) *)
}

let words n = (n + bpw - 1) / bpw
let empty = { n = 0; w = 0; bits = [||] }

(* Number of trailing zeros of a one-bit word (b = x land (-x)). *)
let ntz b =
  let n = ref 0 and b = ref b in
  if !b land 0x7FFFFFFF = 0 then begin n := !n + 31; b := !b lsr 31 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr n;
  !n

let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    incr c;
    x := !x land (!x - 1)
  done;
  !c

let check_ids x y =
  if x < 0 || y < 0 then invalid_arg "Rel: negative event id"

(* A copy grown to capacity [c] (identity if already big enough). *)
let grow c t =
  if c <= t.n then t
  else begin
    let w = words c in
    let bits = Array.make (c * w) 0 in
    for i = 0 to t.n - 1 do
      Array.blit t.bits (i * t.w) bits (i * w) t.w
    done;
    { n = c; w; bits }
  end

let align t1 t2 =
  let c = max t1.n t2.n in
  (grow c t1, grow c t2)

let is_empty t = Array.for_all (fun w -> w = 0) t.bits

let mem x y t =
  x >= 0 && y >= 0 && x < t.n && y < t.n
  && t.bits.((x * t.w) + (y / bpw)) land (1 lsl (y mod bpw)) <> 0

(* Mutable bit set, used only on freshly-allocated arrays. *)
let set_bit bits w x y =
  let i = (x * w) + (y / bpw) in
  bits.(i) <- bits.(i) lor (1 lsl (y mod bpw))

let add x y t =
  check_ids x y;
  if mem x y t then t
  else begin
    let t =
      if max x y < t.n then { t with bits = Array.copy t.bits }
      else grow (max x y + 1) t
    in
    set_bit t.bits t.w x y;
    t
  end

let remove x y t =
  if not (mem x y t) then t
  else begin
    let bits = Array.copy t.bits in
    let i = (x * t.w) + (y / bpw) in
    bits.(i) <- bits.(i) land lnot (1 lsl (y mod bpw));
    { t with bits }
  end

let of_list ps =
  let c =
    List.fold_left
      (fun c (x, y) ->
        check_ids x y;
        max c (max x y + 1))
      0 ps
  in
  let w = words c in
  let bits = Array.make (c * w) 0 in
  List.iter (fun (x, y) -> set_bit bits w x y) ps;
  { n = c; w; bits }

let singleton x y = add x y empty

let init n f =
  if n < 0 then invalid_arg "Rel.init: negative size";
  let w = words n in
  let bits = Array.make (n * w) 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if f x y then set_bit bits w x y
    done
  done;
  { n; w; bits }

(* Iterate the successors of row [i] in increasing order. *)
let iter_row f t i =
  let base = i * t.w in
  for wi = 0 to t.w - 1 do
    let word = ref t.bits.(base + wi) in
    let off = wi * bpw in
    while !word <> 0 do
      let b = !word land (- !word) in
      f (off + ntz b);
      word := !word lxor b
    done
  done

(* Pairs in increasing lexicographic order, like the pair-set's fold. *)
let iter f t =
  for i = 0 to t.n - 1 do
    iter_row (fun j -> f i j) t i
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun x y -> acc := f x y !acc) t;
  !acc

let to_list t = List.rev (fold (fun x y acc -> (x, y) :: acc) t [])
let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.bits

let equal t1 t2 =
  let t1, t2 = align t1 t2 in
  let rec go i =
    i < 0 || (t1.bits.(i) = t2.bits.(i) && go (i - 1))
  in
  go (Array.length t1.bits - 1)

let subset t1 t2 =
  let t1, t2 = align t1 t2 in
  let rec go i =
    i < 0 || (t1.bits.(i) land lnot t2.bits.(i) = 0 && go (i - 1))
  in
  go (Array.length t1.bits - 1)

let map2_words op t1 t2 =
  let t1, t2 = align t1 t2 in
  Obs.Counter.add words_touched (Array.length t1.bits);
  { t1 with bits = Array.init (Array.length t1.bits) (fun i -> op t1.bits.(i) t2.bits.(i)) }

let union = map2_words ( lor )
let inter = map2_words ( land )
let diff = map2_words (fun a b -> a land lnot b)

let filter f t =
  let bits = Array.make (Array.length t.bits) 0 in
  iter (fun x y -> if f x y then set_bit bits t.w x y) t;
  { t with bits }

let exists f t =
  let exception Found in
  try
    iter (fun x y -> if f x y then raise Found) t;
    false
  with Found -> true

let for_all f t = not (exists (fun x y -> not (f x y)) t)

let inverse t =
  let bits = Array.make (Array.length t.bits) 0 in
  iter (fun x y -> set_bit bits t.w y x) t;
  { t with bits }

let domain t =
  let acc = ref Iset.empty in
  for i = 0 to t.n - 1 do
    let base = i * t.w in
    let nonzero = ref false in
    for wi = 0 to t.w - 1 do
      if t.bits.(base + wi) <> 0 then nonzero := true
    done;
    if !nonzero then acc := Iset.add i !acc
  done;
  !acc

let range t =
  (* OR every row into one vector, then read its bits off. *)
  let row = Array.make t.w 0 in
  for i = 0 to t.n - 1 do
    let base = i * t.w in
    for wi = 0 to t.w - 1 do
      row.(wi) <- row.(wi) lor t.bits.(base + wi)
    done
  done;
  let acc = ref Iset.empty in
  for wi = 0 to t.w - 1 do
    let word = ref row.(wi) in
    let off = wi * bpw in
    while !word <> 0 do
      let b = !word land (- !word) in
      acc := Iset.add (off + ntz b) !acc;
      word := !word lxor b
    done
  done;
  !acc

let field t = Iset.union (domain t) (range t)

let seq t1 t2 =
  let t1, t2 = align t1 t2 in
  let n = t1.n and w = t1.w in
  let bits = Array.make (n * w) 0 in
  for i = 0 to n - 1 do
    let base = i * w in
    iter_row
      (fun j ->
        Obs.Counter.add words_touched w;
        let jbase = j * w in
        for k = 0 to w - 1 do
          bits.(base + k) <- bits.(base + k) lor t2.bits.(jbase + k)
        done)
      t1 i
  done;
  { n; w; bits }

let rec seqs = function
  | [] -> invalid_arg "Rel.seqs: empty list"
  | [ t ] -> t
  | t :: ts -> seq t (seqs ts)

(* [set_row_from ~src j i t]: [t] with the successor row of [i] replaced
   wholesale by row [j] of [src] — the delta-patch primitive: when a
   read's writer changes from [w] to [w'], its from-reads row becomes
   exactly the coherence row of [w']. *)
let set_row_from ~src j i t =
  check_ids i j;
  let c = max (max src.n t.n) (max i j + 1) in
  let src = grow c src and t = grow c t in
  let bits = Array.copy t.bits in
  Array.blit src.bits (j * src.w) bits (i * t.w) t.w;
  { t with bits }

let id_of_list xs = of_list (List.map (fun x -> (x, x)) xs)
let id_of_set s = id_of_list (Iset.to_list s)

(* The bit-vector mask of an integer set, at [w] words. *)
let mask_of_set w s =
  let m = Array.make (max w 1) 0 in
  Iset.iter (fun x -> m.(x / bpw) <- m.(x / bpw) lor (1 lsl (x mod bpw))) s;
  m

let cartesian s1 s2 =
  if Iset.is_empty s1 || Iset.is_empty s2 then empty
  else begin
    let c = max (Iset.max_elt s1) (Iset.max_elt s2) + 1 in
    if Iset.min_elt s1 < 0 || Iset.min_elt s2 < 0 then
      invalid_arg "Rel.cartesian: negative event id";
    let w = words c in
    let m = mask_of_set w s2 in
    let bits = Array.make (c * w) 0 in
    Iset.iter (fun i -> Array.blit m 0 bits (i * w) w) s1;
    { n = c; w; bits }
  end

let restrict_domain s t =
  let bits = Array.copy t.bits in
  for i = 0 to t.n - 1 do
    if not (Iset.mem i s) then Array.fill bits (i * t.w) t.w 0
  done;
  { t with bits }

let restrict_range s t =
  let m = mask_of_set t.w (Iset.filter (fun x -> x >= 0 && x < t.n) s) in
  let bits =
    Array.init (Array.length t.bits) (fun i -> t.bits.(i) land m.(i mod t.w))
  in
  { t with bits }

let restrict s t = restrict_domain s (restrict_range s t)

let transitive_closure t =
  (* Warshall: after round k, paths through intermediates <= k are edges. *)
  let n = t.n and w = t.w in
  let bits = Array.copy t.bits in
  for k = 0 to n - 1 do
    let kw = k / bpw and kb = 1 lsl (k mod bpw) in
    let kbase = k * w in
    for i = 0 to n - 1 do
      let ibase = i * w in
      if bits.(ibase + kw) land kb <> 0 then begin
        Obs.Counter.add words_touched w;
        for m = 0 to w - 1 do
          bits.(ibase + m) <- bits.(ibase + m) lor bits.(kbase + m)
        done
      end
    done
  done;
  { t with bits }

let reflexive_closure ~universe t = union t (id_of_set universe)

let reflexive_transitive_closure ~universe t =
  reflexive_closure ~universe (transitive_closure t)

let complement ~universe t = diff (cartesian universe universe) t

let is_irreflexive t =
  let rec go i = i >= t.n || ((not (mem i i t)) && go (i + 1)) in
  go 0

let is_acyclic t =
  (* Three-colour DFS over the successor rows; no closure is built, so a
     verdict on an already-cyclic relation costs O(V + E). *)
  let exception Cyclic in
  let color = Array.make t.n 0 in
  (* 0 white, 1 on stack, 2 done *)
  let rec visit i =
    color.(i) <- 1;
    Obs.Counter.add words_touched t.w;
    iter_row
      (fun j ->
        match color.(j) with
        | 0 -> visit j
        | 1 -> raise Cyclic
        | _ -> ())
      t i;
    color.(i) <- 2
  in
  try
    for i = 0 to t.n - 1 do
      if color.(i) = 0 then visit i
    done;
    true
  with Cyclic -> false

let find_cycle t =
  (* A shortest witness cycle, as a list of events [e0; e1; ...; en] with
     (ei, ei+1) in [t] and e0 = en; [None] if acyclic.  Used to explain
     verdicts, so we prefer short cycles: BFS from each event, bailing
     out as soon as nothing shorter can exist — a self-loop ([x; x],
     length 2) immediately, a 2-cycle ([x; y; x], length 3) once the
     diagonal is known clean — so --explain paths don't pay O(V·E) on
     every already-failed check. *)
  let exception Done of int list in
  try
    for i = 0 to t.n - 1 do
      if mem i i t then raise (Done [ i; i ])
    done;
    let best = ref None in
    let best_len = ref max_int in
    for start = 0 to t.n - 1 do
      if !best_len > 3 then begin
        (* BFS from [start] for the shortest path back to it. *)
        let parent = Array.make t.n (-1) in
        let q = Queue.create () in
        iter_row
          (fun y ->
            if parent.(y) < 0 then begin
              parent.(y) <- start;
              Queue.add y q
            end)
          t start;
        let found = ref false in
        while (not !found) && not (Queue.is_empty q) do
          let x = Queue.pop q in
          iter_row
            (fun y ->
              if (not !found) && y = start then begin
                let rec back acc v =
                  if v = start then start :: acc
                  else back (v :: acc) parent.(v)
                in
                let path = back [ start ] x in
                let len = List.length path in
                if len < !best_len then begin
                  best := Some path;
                  best_len := len
                end;
                found := true
              end
              else if parent.(y) < 0 then begin
                parent.(y) <- x;
                Queue.add y q
              end)
            t x
        done
      end
    done;
    !best
  with Done path -> Some path

let topological_sort ~universe t =
  (* Kahn's algorithm with in-degree counts, restricted to edges within
     the universe; picks the smallest ready event each round, so the
     order is the lexicographically least one (as the pair-set
     implementation produced). *)
  let t = restrict universe t in
  let members = Iset.to_list universe in
  let total = List.length members in
  if total = 0 then Some []
  else begin
    let c = Iset.max_elt universe + 1 in
    let t = grow c t in
    let in_universe = Array.make c false in
    List.iter (fun x -> in_universe.(x) <- true) members;
    let indeg = Array.make c 0 in
    iter (fun _ y -> indeg.(y) <- indeg.(y) + 1) t;
    let remaining = Array.copy in_universe in
    let out = ref [] and placed = ref 0 and stuck = ref false in
    while (not !stuck) && !placed < total do
      (* smallest remaining event with no incoming edge *)
      let x = ref (-1) in
      (try
         for i = 0 to c - 1 do
           if remaining.(i) && indeg.(i) = 0 then begin
             x := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !x < 0 then stuck := true (* every remaining event is on a cycle *)
      else begin
        remaining.(!x) <- false;
        incr placed;
        out := !x :: !out;
        iter_row (fun y -> indeg.(y) <- indeg.(y) - 1) t !x
      end
    done;
    if !stuck then None else Some (List.rev !out)
  end

let linear_extensions elems =
  (* All total orders of [elems], as relations; used to enumerate coherence
     orders.  [elems] has at most a handful of entries per location.
     Removal is positional, not by value: filtering out every copy of a
     repeated element would silently drop elements and miscount the
     permutations of a multiset. *)
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        let rec pick pre = function
          | [] -> []
          | x :: rest ->
              List.map
                (fun p -> x :: p)
                (perms (List.rev_append pre rest))
              @ pick (x :: pre) rest
        in
        pick [] xs
  in
  let order_of_list l =
    let rec go acc = function
      | [] -> acc
      | x :: rest ->
          go (List.fold_left (fun acc y -> add x y acc) acc rest) rest
    in
    go empty l
  in
  List.map order_of_list (perms elems)

let pp ppf t =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any "; ") (pair ~sep:(any "->") int int))
    (to_list t)

(* ------------------------------------------------------------------ *)
(* Candidate-major bit planes                                          *)
(* ------------------------------------------------------------------ *)

(* The scalar rows above pack one relation's successors into 63-bit
   words, which wastes most of each word on litmus-sized universes
   (n ≈ 8–16 events).  Candidates of one event structure differ only in
   their witness relations over the *same* universe, so the batched
   layout transposes the packing: one word per event *pair* (x, y),
   bit c meaning "edge (x, y) is present in candidate c".  The algebra
   then evaluates up to 63 candidates in the same pass, and per-plane
   masks let decided candidates drop out ([restrict]) so they stop
   costing work: sequence and closure skip zero pair-words.

   The universe [0, n) is fixed at construction (all candidates of one
   structure share it); binary operations require equal universes.
   Operations are persistent, like the scalar ones. *)
module Batch = struct
  type rel = t

  let width = bpw (* planes per batch: the usable bits of an int *)

  (* All-ones over the low [k] bits.  [k = 63] needs the special case:
     [1 lsl 63] is out of range for a shift on a 63-bit int, and [-1]
     is exactly the 63 ones wanted.  ([k = 62] is fine by wraparound:
     [1 lsl 62] is [min_int] and [min_int - 1] is [max_int], the 62
     low ones.) *)
  let full_mask k =
    if k < 0 || k > width then invalid_arg "Batch.full_mask"
    else if k = width then -1
    else (1 lsl k) - 1

  let batch_words = Obs.Counter.make "rel.batch.words"

  type t = {
    bn : int; (* universe size: planes are over pairs in [0, bn)² *)
    planes : int array; (* bn * bn words; pair (x, y) at index x*bn + y *)
  }

  let n t = t.bn
  let create ~n = { bn = n; planes = Array.make (n * n) 0 }

  let check2 a b =
    if a.bn <> b.bn then invalid_arg "Batch: universe size mismatch"

  let of_rels ~n ?mask (rels : rel array) =
    let k = Array.length rels in
    if k > width then invalid_arg "Batch.of_rels: more than 63 candidates";
    let mask = match mask with Some m -> m | None -> full_mask k in
    let planes = Array.make (n * n) 0 in
    Array.iteri
      (fun c r ->
        let bit = 1 lsl c in
        if mask land bit <> 0 then
          iter
            (fun x y ->
              if x >= n || y >= n then
                invalid_arg "Batch.of_rels: id out of universe";
              planes.((x * n) + y) <- planes.((x * n) + y) lor bit)
            r)
      rels;
    { bn = n; planes }

  (* The lift of a static, witness-independent relation: [r] in every
     plane of [mask], the empty relation elsewhere. *)
  let broadcast ~n ~mask (r : rel) =
    let planes = Array.make (n * n) 0 in
    iter
      (fun x y ->
        if x >= n || y >= n then
          invalid_arg "Batch.broadcast: id out of universe";
        planes.((x * n) + y) <- mask)
      r;
    { bn = n; planes }

  (* Plane [c], back as a scalar relation (tests, forensics). *)
  let plane t c =
    let bit = 1 lsl c in
    let acc = ref empty in
    for x = 0 to t.bn - 1 do
      for y = 0 to t.bn - 1 do
        if t.planes.((x * t.bn) + y) land bit <> 0 then acc := add x y !acc
      done
    done;
    !acc

  let map2 op a b =
    check2 a b;
    Obs.Counter.add batch_words (Array.length a.planes);
    {
      a with
      planes =
        Array.init (Array.length a.planes) (fun i ->
            op a.planes.(i) b.planes.(i));
    }

  let union = map2 ( lor )
  let inter = map2 ( land )
  let diff = map2 (fun x y -> x land lnot y)

  (* Relational composition, all planes at once: out(x, z) gets bit c
     iff some y has (x, y) and (y, z) in plane c.  The inner loop runs
     only for nonzero (x, y) words, so decided (zeroed) planes and
     sparse relations cost nothing. *)
  let seq a b =
    check2 a b;
    let n = a.bn in
    let out = Array.make (n * n) 0 in
    for x = 0 to n - 1 do
      let xb = x * n in
      for y = 0 to n - 1 do
        let v = a.planes.(xb + y) in
        if v <> 0 then begin
          Obs.Counter.add batch_words n;
          let yb = y * n in
          for z = 0 to n - 1 do
            out.(xb + z) <- out.(xb + z) lor (v land b.planes.(yb + z))
          done
        end
      done
    done;
    { bn = n; planes = out }

  let inverse t =
    let n = t.bn in
    let out = Array.make (n * n) 0 in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        out.((y * n) + x) <- t.planes.((x * n) + y)
      done
    done;
    { bn = n; planes = out }

  (* Warshall over planes: after round k, paths through intermediates
     <= k are edges — in every plane at once. *)
  let transitive_closure t =
    let n = t.bn in
    let p = Array.copy t.planes in
    for k = 0 to n - 1 do
      let kb = k * n in
      for i = 0 to n - 1 do
        let ib = i * n in
        let v = p.(ib + k) in
        if v <> 0 then begin
          Obs.Counter.add batch_words n;
          for j = 0 to n - 1 do
            p.(ib + j) <- p.(ib + j) lor (v land p.(kb + j))
          done
        end
      done
    done;
    { t with planes = p }

  (* The diagonal set in the planes of [mask]: reflexive closure over
     the full universe [0, n). *)
  let reflexive_closure ~mask t =
    let n = t.bn in
    let p = Array.copy t.planes in
    for i = 0 to n - 1 do
      p.((i * n) + i) <- p.((i * n) + i) lor mask
    done;
    { t with planes = p }

  let reflexive_transitive_closure ~mask t =
    reflexive_closure ~mask (transitive_closure t)

  let complement ~mask t =
    Obs.Counter.add batch_words (Array.length t.planes);
    { t with planes = Array.map (fun w -> mask land lnot w) t.planes }

  (* Zero the planes outside [mask]: the batched early-exit. *)
  let restrict ~mask t =
    Obs.Counter.add batch_words (Array.length t.planes);
    { t with planes = Array.map (fun w -> w land mask) t.planes }

  let equal a b =
    a.bn = b.bn
    &&
    let rec go i = i < 0 || (a.planes.(i) = b.planes.(i) && go (i - 1)) in
    go (Array.length a.planes - 1)

  (* Mask of planes in which edge (x, y) is present. *)
  let mem x y t =
    if x < 0 || y < 0 || x >= t.bn || y >= t.bn then 0
    else t.planes.((x * t.bn) + y)

  (* Per-plane decision masks: one bit per candidate, answering the
     cat-style checks for every plane in one scan. *)

  let nonempty_mask t = Array.fold_left ( lor ) 0 t.planes

  let reflexive_mask t =
    let n = t.bn in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lor t.planes.((i * n) + i)
    done;
    !acc

  (* Planes whose relation has a cycle: the closure's diagonal. *)
  let cyclic_mask t = reflexive_mask (transitive_closure t)

  let irreflexive_mask ~mask t = mask land lnot (reflexive_mask t)
  let acyclic_mask ~mask t = mask land lnot (cyclic_mask t)
  let empty_mask ~mask t = mask land lnot (nonempty_mask t)
end
