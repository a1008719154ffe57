(* Binary relations over event identifiers, the algebraic substrate of
   axiomatic memory models (herd's kernel).

   The representation is a dense bit matrix over the small integer event
   universe: one bit vector (row) per source event, packed into a single
   int array at 63 bits per word.  Union, intersection, difference and
   relational composition are word-parallel; transitive closure is
   Warshall's algorithm at O(n³/63); acyclicity is a DFS that never
   materialises the closure.  Every operation is persistent — arrays are
   copied, never shared mutably — so the functional interface of the
   original pair-set implementation (test/rel_ref.ml, the test suite's
   reference) is unchanged.

   Capacity is an implementation detail: a relation knows the smallest
   universe [0, n) enclosing every pair ever added, rows grow on demand,
   and all observable behaviour (equality included) is capacity-
   independent. *)

module Iset = Iset

let bpw = 63 (* usable bits in an OCaml int *)

(* Words touched by the word-parallel ops, at op granularity: union,
   inter, diff and the reflexive closure charge the result array,
   composition/closure/acyclicity charge one row per row OR-ed or
   visited.  The charge is a function of the operands alone — an
   early return charges what the full loop would — so the counter
   reads the same whatever shortcut a kernel takes.  Free when Obs is
   off: the amounts computed for the counter alone (result sizes,
   [seq]'s pair count on an early return) sit under [Obs.enabled]. *)
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

(* A fresh copy of [t] at capacity [c >= t.n]. *)
let copy_at c t =
  if c > t.n then grow c t else { t with bits = Array.copy t.bits }

(* Operands at one row width.  Rows of equal width sit at equal offsets
   in both arrays, so a flat word loop pairs them up, and the longer
   array's extra words are the larger capacity's extra rows. *)
let same_width t1 t2 = if t1.w = t2.w then (t1, t2) else align t1 t2

let is_empty t =
  let bits = t.bits in
  let i = ref (Array.length bits - 1) in
  while !i >= 0 && bits.(!i) = 0 do
    decr i
  done;
  !i < 0

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

(* Row by row from one member mask per class: a row is its class's
   mask (or the mask's complement within [0, n)) with bit [x] cleared,
   and for [`Later] every bit below [x] too. *)
let of_classes rel classes =
  let n = Array.length classes in
  let w = words n in
  let top = Array.fold_left max (-1) classes in
  let masks = Array.make ((top + 1) * w) 0 in
  Array.iteri (fun x c -> if c >= 0 then set_bit masks w c x) classes;
  (* the valid bits of the last word of a row *)
  let last = n - ((w - 1) * bpw) in
  let last_mask = if last = bpw then -1 else (1 lsl last) - 1 in
  let bits = Array.make (n * w) 0 in
  for x = 0 to n - 1 do
    let c = classes.(x) and base = x * w in
    let xw = x / bpw and xb = x mod bpw in
    (match rel with
    | `Same | `Later -> if c >= 0 then Array.blit masks (c * w) bits base w
    | `Other ->
        for wi = 0 to w - 1 do
          let m = if c >= 0 then masks.((c * w) + wi) else 0 in
          bits.(base + wi) <- lnot m
        done;
        bits.(base + w - 1) <- bits.(base + w - 1) land last_mask);
    match rel with
    | `Same | `Other ->
        bits.(base + xw) <- bits.(base + xw) land lnot (1 lsl xb)
    | `Later ->
        for wi = 0 to xw - 1 do
          bits.(base + wi) <- 0
        done;
        bits.(base + xw) <-
          (if xb = bpw - 1 then 0
           else bits.(base + xw) land ((-1) lsl (xb + 1)))
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

let cardinal t =
  let c = ref 0 in
  for i = 0 to Array.length t.bits - 1 do
    c := !c + popcount t.bits.(i)
  done;
  !c

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

(* The binary operators below return their result at the operands'
   common capacity [c] and charge its [c] rows of [words c] words.
   [union] and [inter] skip the word loop when an operand has no pairs
   (the result is the other operand, or no pairs, grown to [c]): on
   litmus workloads 38-76% of their calls have such an operand, and
   without the shortcut lkbench's corpus tail rises 4-7%.  [diff],
   rarely called with one, always runs its loop. *)
let charge_rows c =
  if Obs.enabled () then Obs.Counter.add words_touched (c * words c)

let union t1 t2 =
  let c = max t1.n t2.n in
  charge_rows c;
  if is_empty t2 then grow c t1
  else if is_empty t1 then grow c t2
  else begin
    let t1, t2 = same_width t1 t2 in
    let r = copy_at c t1 in
    let bits = r.bits and b2 = t2.bits in
    for i = 0 to Array.length b2 - 1 do
      bits.(i) <- bits.(i) lor b2.(i)
    done;
    r
  end

let inter t1 t2 =
  let c = max t1.n t2.n in
  charge_rows c;
  if is_empty t1 then grow c t1
  else if is_empty t2 then grow c t2
  else begin
    let t1, t2 = same_width t1 t2 in
    let b1 = t1.bits and b2 = t2.bits in
    let bits = Array.make (c * t1.w) 0 in
    for i = 0 to min (Array.length b1) (Array.length b2) - 1 do
      bits.(i) <- b1.(i) land b2.(i)
    done;
    { n = c; w = t1.w; bits }
  end

let diff t1 t2 =
  let c = max t1.n t2.n in
  charge_rows c;
  let t1, t2 = same_width t1 t2 in
  let r = copy_at c t1 in
  let bits = r.bits and b2 = t2.bits in
  for i = 0 to Array.length b2 - 1 do
    bits.(i) <- bits.(i) land lnot b2.(i)
  done;
  r

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
  let w = t.w and src = t.bits in
  let bits = Array.make (Array.length src) 0 in
  for x = 0 to t.n - 1 do
    let xw = x / bpw and xb = 1 lsl (x mod bpw) in
    for wi = 0 to w - 1 do
      let word = ref src.((x * w) + wi) in
      while !word <> 0 do
        let b = !word land - !word in
        let i = (((wi * bpw) + ntz b) * w) + xw in
        bits.(i) <- bits.(i) lor xb;
        word := !word lxor b
      done
    done
  done;
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

(* Composition ORs row [j] of [t2] into row [i] for every pair (i, j)
   of [t1], charging one row of [words c] words per pair.  An operand
   with no pairs (55-69% of calls on litmus workloads) skips the loop;
   with [t2] empty the charge stands.  Without the shortcut lkbench's
   corpus throughput falls 3.5%. *)
let seq t1 t2 =
  let c = max t1.n t2.n in
  if is_empty t1 then grow c t1
  else if is_empty t2 then begin
    if Obs.enabled () then
      Obs.Counter.add words_touched (words c * cardinal t1);
    grow c t2
  end
  else begin
    let t1, t2 = same_width t1 t2 in
    let w = t1.w and b1 = t1.bits and b2 = t2.bits and n2 = t2.n in
    let bits = Array.make (c * w) 0 in
    let pairs = ref 0 in
    for i = 0 to t1.n - 1 do
      let base = i * w in
      for wi = 0 to w - 1 do
        let word = ref b1.(base + wi) in
        while !word <> 0 do
          let b = !word land - !word in
          let j = (wi * bpw) + ntz b in
          incr pairs;
          if j < n2 then begin
            let jbase = j * w in
            for k = 0 to w - 1 do
              bits.(base + k) <- bits.(base + k) lor b2.(jbase + k)
            done
          end;
          word := !word lxor b
        done
      done
    done;
    Obs.Counter.add words_touched (w * !pairs);
    { n = c; w; bits }
  end

let rec seqs = function
  | [] -> invalid_arg "Rel.seqs: empty list"
  | [ t ] -> t
  | t :: ts -> seq t (seqs ts)

(* [set_row_from ~src j i t]: [t] with the successor row of [i] replaced
   wholesale by row [j] of [src] — the from-reads primitive: a read's
   fr row is exactly the coherence row of its writer. *)
let set_row_from ~src j i t =
  check_ids i j;
  let c = max (max src.n t.n) (max i j + 1) in
  let src = grow c src and t = grow c t in
  let bits = Array.copy t.bits in
  Array.blit src.bits (j * src.w) bits (i * t.w) t.w;
  { t with bits }

let id_of_list xs = of_list (List.map (fun x -> (x, x)) xs)

(* The diagonal over [s], set in place in [t]'s fresh array. *)
let set_diagonal s t = Iset.iter (fun x -> set_bit t.bits t.w x x) s

let id_of_set s =
  if Iset.is_empty s then empty
  else begin
    if Iset.min_elt s < 0 then invalid_arg "Rel: negative event id";
    let c = Iset.max_elt s + 1 in
    let t = { n = c; w = words c; bits = Array.make (c * words c) 0 } in
    set_diagonal s t;
    t
  end

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
  (* Warshall: after round k, paths through intermediates <= k are edges.
     A relation with no pairs (36-43% of calls) is its own closure. *)
  if is_empty t then t
  else begin
    let n = t.n and w = t.w in
    let bits = Array.copy t.bits in
    let ored = ref 0 in
    for k = 0 to n - 1 do
      let kw = k / bpw and kb = 1 lsl (k mod bpw) in
      let kbase = k * w in
      for i = 0 to n - 1 do
        let ibase = i * w in
        if bits.(ibase + kw) land kb <> 0 then begin
          incr ored;
          for m = 0 to w - 1 do
            bits.(ibase + m) <- bits.(ibase + m) lor bits.(kbase + m)
          done
        end
      done
    done;
    Obs.Counter.add words_touched (w * !ored);
    { t with bits }
  end

(* [union t (id_of_set universe)], charged as that union, without
   building the identity. *)
let reflexive_closure ~universe t =
  if Iset.is_empty universe then union t empty
  else begin
    if Iset.min_elt universe < 0 then invalid_arg "Rel: negative event id";
    let c = max t.n (Iset.max_elt universe + 1) in
    charge_rows c;
    let r = copy_at c t in
    set_diagonal universe r;
    r
  end

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

(* The row primitives, bounds-checked for callers outside the module. *)
let iter_row f t i = if i >= 0 && i < t.n then iter_row f t i

(* The meeting points of row [x] of [t1] and row [z] of [t2]: one
   word-AND per 63 events. *)
let iter_row_inter f t1 x t2 z =
  if x >= 0 && x < t1.n && z >= 0 && z < t2.n then begin
    let b1 = x * t1.w and b2 = z * t2.w in
    for wi = 0 to min t1.w t2.w - 1 do
      let word = ref (t1.bits.(b1 + wi) land t2.bits.(b2 + wi)) in
      let off = wi * bpw in
      while !word <> 0 do
        let b = !word land - !word in
        f (off + ntz b);
        word := !word lxor b
      done
    done
  end

let pp ppf t =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any "; ") (pair ~sep:(any "->") int int))
    (to_list t)

(* The two names lkbench's trace replay still compiles against, kept
   until that replay reads lib/obs instead: the bit-plane engine they
   served is gone, and nothing in the library calls them. *)
module Batch = struct
  let width = bpw

  (* All-ones over the low [k] bits; [k = 63] is [-1], as [1 lsl 63] is
     out of range for a shift on a 63-bit int. *)
  let full_mask k =
    if k < 0 || k > width then invalid_arg "Batch.full_mask"
    else if k = width then -1
    else (1 lsl k) - 1
end
