(* Reference implementation of the relation algebra: a set of ordered
   pairs of small integers, kept as the executable specification of
   {!Rel}.  The dense bitset kernel in rel.ml is the production
   implementation; this one trades speed for obviousness and is what the
   differential property suite (test/test_rel_dense.ml) checks the dense
   kernel against, op by op. *)

module Iset = Rel.Iset

module Pair = struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
end

module PS = Set.Make (Pair)

type t = PS.t

let empty = PS.empty
let is_empty = PS.is_empty
let mem x y t = PS.mem (x, y) t
let add x y t = PS.add (x, y) t
let singleton x y = PS.singleton (x, y)
let of_list ps = PS.of_list ps
let to_list t = PS.elements t
let cardinal = PS.cardinal
let equal = PS.equal
let subset = PS.subset
let union = PS.union
let inter = PS.inter
let diff = PS.diff
let filter f t = PS.filter (fun (x, y) -> f x y) t
let fold f t acc = PS.fold (fun (x, y) acc -> f x y acc) t acc
let iter f t = PS.iter (fun (x, y) -> f x y) t
let exists f t = PS.exists (fun (x, y) -> f x y) t
let for_all f t = PS.for_all (fun (x, y) -> f x y) t

let inverse t = fold (fun x y acc -> add y x acc) t empty

let domain t = fold (fun x _ acc -> Iset.add x acc) t Iset.empty
let range t = fold (fun _ y acc -> Iset.add y acc) t Iset.empty
let field t = Iset.union (domain t) (range t)

(* Successor index: event -> sorted list of successors.  Rebuilt on demand;
   relations are tiny. *)
let successors t =
  let tbl = Hashtbl.create 16 in
  iter
    (fun x y ->
      let old = try Hashtbl.find tbl x with Not_found -> [] in
      Hashtbl.replace tbl x (y :: old))
    t;
  fun x -> try Hashtbl.find tbl x with Not_found -> []

let seq t1 t2 =
  let succ2 = successors t2 in
  fold
    (fun x y acc -> List.fold_left (fun acc z -> add x z acc) acc (succ2 y))
    t1 empty

let rec seqs = function
  | [] -> invalid_arg "Rel.seqs: empty list"
  | [ t ] -> t
  | t :: ts -> seq t (seqs ts)

let id_of_set s = Iset.fold (fun x acc -> add x x acc) s empty
let id_of_list xs = List.fold_left (fun acc x -> add x x acc) empty xs

let cartesian s1 s2 =
  Iset.fold (fun x acc -> Iset.fold (fun y acc -> add x y acc) s2 acc) s1 empty

let restrict_domain s t = filter (fun x _ -> Iset.mem x s) t
let restrict_range s t = filter (fun _ y -> Iset.mem y s) t
let restrict s t = filter (fun x y -> Iset.mem x s && Iset.mem y s) t

let transitive_closure t =
  (* Kleene iteration; |E| is small. *)
  let rec go acc =
    let next = union acc (seq acc t) in
    if equal next acc then acc else go next
  in
  go t

let reflexive_closure ~universe t = union t (id_of_set universe)

let reflexive_transitive_closure ~universe t =
  reflexive_closure ~universe (transitive_closure t)

let complement ~universe t = diff (cartesian universe universe) t

let is_irreflexive t = not (exists (fun x y -> x = y) t)

let is_acyclic t = is_irreflexive (transitive_closure t)

let find_cycle t =
  (* A shortest witness cycle, as a list of events [e0; e1; ...; en] with
     (ei, ei+1) in [t] and e0 = en; [None] if acyclic.  Used to explain
     verdicts, so we prefer short cycles: BFS from each event. *)
  let succ = successors t in
  let nodes = Iset.to_list (field t) in
  let best = ref None in
  let consider path =
    match !best with
    | Some b when List.length b <= List.length path -> ()
    | _ -> best := Some path
  in
  let bfs start =
    let parent = Hashtbl.create 16 in
    let q = Queue.create () in
    List.iter
      (fun y ->
        if y = start then consider [ start; start ]
        else if not (Hashtbl.mem parent y) then begin
          Hashtbl.replace parent y start;
          Queue.add y q
        end)
      (succ start);
    let rec drain () =
      if not (Queue.is_empty q) then begin
        let x = Queue.pop q in
        List.iter
          (fun y ->
            if y = start then begin
              (* reconstruct path start -> ... -> x -> start *)
              let rec back acc v =
                if v = start then start :: acc else back (v :: acc) (Hashtbl.find parent v)
              in
              consider (back [ start ] x)
            end
            else if not (Hashtbl.mem parent y) then begin
              Hashtbl.replace parent y x;
              Queue.add y q
            end)
          (succ x);
        drain ()
      end
    in
    drain ()
  in
  List.iter bfs nodes;
  !best

let topological_sort ~universe t =
  (* Kahn's algorithm; restricted to edges within the universe *)
  let t = restrict universe t in
  if not (is_acyclic t) then None
  else begin
    let remaining = ref universe and edges = ref t and out = ref [] in
    while not (Iset.is_empty !remaining) do
      let ready =
        Iset.filter
          (fun x -> not (exists (fun _ y -> y = x) !edges))
          !remaining
      in
      (* acyclicity guarantees progress *)
      let x = Iset.min_elt ready in
      out := x :: !out;
      remaining := Iset.remove x !remaining;
      edges := filter (fun a _ -> a <> x) !edges
    done;
    Some (List.rev !out)
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
