(* Provenance-tracking explanation engine for cat models.

   When a check of a cat model fails on a candidate execution, this
   module turns the bare [holds = false] into an {!Exec.Explain.t}: a
   minimal witnessing cycle (shortest, via BFS in the dense relation
   kernel) for [acyclic]/[irreflexive], the offending pairs for
   [empty], each edge labelled with the branch of the checked relation
   it belongs to and decomposed — through union / sequence / closure /
   inverse / named definitions — down to primitive rf/co/fr/po/
   dependency edges.

   The decomposition is semantic, not syntactic: at every AST node the
   engine re-evaluates the relevant sub-expressions and follows the
   operand that actually contains the edge.  A sub-expression is
   compiled by the interpreter's own resolver in the scope of its
   program point (a definition's body in the scope it was compiled in,
   so shadowing resolves exactly as the interpreter resolved it) and
   evaluated on the slot array of one replay of the model, which holds
   every program point's values.  A [Union] takes its first branch
   holding the edge; a [Seq] its first midpoint; [Plus]/[Star] find a
   shortest path through the base relation and decompose each hop;
   [Inverse] decomposes the flipped edge and tags labels with [^-1]; an
   [Id] bound by a [let] descends into its body; function application
   ([A-cumul(r)]) substitutes the argument expression for the
   parameter.  A name bound by a [let rec] ([rcu-path]) is a least
   fixed point, solved by Kleene iteration from empty relations: an edge
   that first appears at stage k is in the body evaluated on stage
   k - 1, where each recursive reference holds an edge of a lower stage.
   So the descent needs no search and no guard: it ends, and on
   primitive edges.  The same descent names the step, by the branch it
   takes through unions.  [Cartesian] and [Complement] edges stay
   opaque: their pairs are not produced by other edges.

   Every explanation is passed through {!Exec.Explain.validate} against
   the model's own environment before it is released — the resolver
   maps relation names back to their evaluated values, so each reported
   edge is re-checked for membership in the relation its label names.
   A failure there raises {!Exec.Explain.Invalid}: a hard error by
   design, never a silently wrong diagram. *)

module E = Exec.Explain
module Iset = Rel.Iset

(* A program point: the names it sees, and the replayed slots (grown by
   the parameters of the applications decomposed on the way to it). *)
type point = { scope : Interp.scope; env : Interp.env }

(* ------------------------------------------------------------------ *)
(* Rendering cat expressions (for opaque labels)                       *)
(* ------------------------------------------------------------------ *)

let rec render (e : Ast.expr) =
  match e with
  | Ast.Id x -> x
  | Ast.Empty_rel -> "0"
  | Ast.Union (a, b) -> Printf.sprintf "%s | %s" (atom a) (atom b)
  | Ast.Inter (a, b) -> Printf.sprintf "%s & %s" (atom a) (atom b)
  | Ast.Diff (a, b) -> Printf.sprintf "%s \\ %s" (atom a) (atom b)
  | Ast.Seq (a, b) -> Printf.sprintf "%s ; %s" (atom a) (atom b)
  | Ast.Cartesian (a, b) -> Printf.sprintf "%s * %s" (atom a) (atom b)
  | Ast.Inverse a -> atom a ^ "^-1"
  | Ast.Plus a -> atom a ^ "^+"
  | Ast.Star a -> atom a ^ "^*"
  | Ast.Opt a -> atom a ^ "?"
  | Ast.Complement a -> "~" ^ atom a
  | Ast.Bracket a -> "[" ^ render a ^ "]"
  | Ast.App (f, arg) -> Printf.sprintf "%s(%s)" f (render arg)

and atom e =
  match e with
  | Ast.Id _ | Ast.Empty_rel | Ast.Bracket _ | Ast.App _ -> render e
  | _ -> "(" ^ render e ^ ")"

(* ------------------------------------------------------------------ *)
(* Statement replay: one environment for every program point           *)
(* ------------------------------------------------------------------ *)

(* The compiled model run once on [x]: after the replay each slot holds
   the one value its program point wrote, so a scope at any program
   point and this environment evaluate what the interpreter evaluated
   there.  Returns the environment and the failed checks, each with the
   scope at its program point. *)
let replay ?budget c (model : Ast.t) x =
  let env = Interp.env_of_execution c x in
  let holds = Interp.run ?budget c env in
  let failed =
    List.concat
      (List.mapi
         (fun i stmt ->
           match stmt with
           | Ast.Check (kind, e, name) when not holds.(i) ->
               [ (kind, e, name, { scope = Interp.scope_at c i; env }) ]
           | _ -> [])
         model.Ast.stmts)
  in
  (env, failed)

(* ------------------------------------------------------------------ *)
(* Decomposition into primitive edges                                  *)
(* ------------------------------------------------------------------ *)

let try_rel pt e =
  match Interp.as_rel (Interp.eval_expr pt.env pt.scope e) with
  | r -> Some r
  | exception Interp.Type_error _ -> None

let mem_of pt e a b =
  match try_rel pt e with Some r -> Rel.mem a b r | None -> false

(* Shortest path [a; ...; b] (at least one edge) through [rel], or
   [None].  Handles a = b (a proper cycle through [a]). *)
let bfs_path rel a b =
  let adj : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  Rel.iter
    (fun x y ->
      Hashtbl.replace adj x
        (y :: Option.value ~default:[] (Hashtbl.find_opt adj x)))
    rel;
  let succs x = Option.value ~default:[] (Hashtbl.find_opt adj x) in
  (* prev.(y) = predecessor of y on a shortest path from a; a itself is
     never keyed, so paths of length >= 1 fall out naturally even when
     a = b *)
  let prev : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  let visit p y = if not (Hashtbl.mem prev y) then begin
      Hashtbl.replace prev y p;
      Queue.add y q
    end
  in
  List.iter (visit a) (succs a);
  let rec loop () =
    if Hashtbl.mem prev b then
      let rec back acc n = if n = a then a :: acc
        else back (n :: acc) (Hashtbl.find prev n)
      in
      (* walk back from b; the path has >= 1 edge by construction *)
      Some (back [ b ] (Hashtbl.find prev b))
    else if Queue.is_empty q then None
    else begin
      let x = Queue.pop q in
      List.iter (visit x) (succs x);
      loop ()
    end
  in
  loop ()

let invert_label l =
  if Filename.check_suffix l "^-1" then Filename.chop_suffix l "^-1"
  else l ^ "^-1"

(* The environment in which [x]'s definition holds the edge (a, b): [pt]'s
   own, unless a [let rec] binds [x]; then the Kleene stage just before
   the first stage that holds the edge.  Every recursive reference in
   the body then lands on an edge of a lower stage, so the descent
   through a recursive definition is well-founded.  [None] when no stage
   holds the edge. *)
let body_env stages pt x a b =
  match stages pt.scope x with
  | None -> Some pt.env
  | Some st ->
      (* stage 0 holds the empty relations *)
      let rec first k =
        if k >= Array.length st then None
        else if mem_of { pt with env = st.(k) } (Ast.Id x) a b then
          Some st.(k - 1)
        else first (k + 1)
      in
      first 1

let rec consecutive = function
  | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
  | _ -> []

(* [decompose stages pt e a b] names the edge (a, b) of [e] at [pt] and
   splits it into a path of primitive edges, assuming the edge is in [e]
   there (the caller established that by membership).  The name is the
   branch the descent takes through unions and through names defined as
   unions: checking [hb = ((prop \ id) & int) | ppo | rfe] names each
   edge "ppo", "rfe" or the rendered first branch.  Below the first
   other node the name is that node, a defined name or the rendered
   expression, and [prims] splits the edge on.

   One descent, no backtracking: a union follows its first branch that
   holds the edge, a sequence its first midpoint (strict ones, distinct
   from both endpoints, before degenerate ones), and a name its
   definition in {!body_env}.  Every step goes to a sub-expression, to
   an earlier program point, or to a recursive definition's lower
   stage, so the descent ends, on primitive edges.  [Cartesian] and
   [Complement] edges stay opaque (one prim carrying the rendered
   expression): their pairs are not produced by other edges. *)
let rec decompose stages pt (e : Ast.expr) a b : string * E.prim list =
  let leaf l = (l, [ { E.p_src = a; p_dst = b; p_label = l } ]) in
  match e with
  | Ast.Id "com" ->
      (* predefined rf | co | fr: split for herd-style labels *)
      let pick n = mem_of pt (Ast.Id n) a b in
      leaf (if pick "rf" then "rf" else if pick "co" then "co" else "fr")
  | Ast.Id x -> (
      match (Interp.definition pt.scope x, body_env stages pt x a b) with
      | Some ((Ast.Union _ as body), scope), Some env ->
          decompose stages { scope; env } body a b
      | Some (body, scope), Some env ->
          (x, prims stages { scope; env } body a b)
      | _ ->
          (* predefined, function or unknown: a bound name still
             validates by membership *)
          leaf x)
  | Ast.Union (l, r) ->
      decompose stages pt (if mem_of pt l a b then l else r) a b
  | _ -> (render e, prims stages pt e a b)

and prims stages pt (e : Ast.expr) a b : E.prim list =
  let prim l = { E.p_src = a; p_dst = b; p_label = l } in
  let opaque () = [ prim (render e) ] in
  match e with
  | Ast.Id _ | Ast.Union _ -> snd (decompose stages pt e a b)
  | Ast.Empty_rel | Ast.Cartesian _ | Ast.Complement _ | Ast.Bracket _ ->
      opaque ()
  | Ast.Inter (l, r) ->
      (* both operands contain the edge; decompose the more telling
         one (more primitives — [rmw & (fre ; coe)] shows fre;coe) *)
      let dl = prims stages pt l a b and dr = prims stages pt r a b in
      if List.length dr > List.length dl then dr else dl
  | Ast.Diff (l, _) -> prims stages pt l a b
  | Ast.Seq (l, r) -> (
      match (try_rel pt l, try_rel pt r) with
      | Some rl, Some rr -> (
          let mids = ref [] in
          Rel.iter_row
            (fun m -> if Rel.mem m b rr then mids := m :: !mids)
            rl a;
          let mids = List.rev !mids in
          match (List.find_opt (fun m -> m <> a && m <> b) mids, mids) with
          | Some m, _ | None, m :: _ ->
              prims stages pt l a m @ prims stages pt r m b
          | None, [] -> opaque ())
      | _ -> opaque ())
  | Ast.Inverse inner ->
      prims stages pt inner b a
      |> List.rev_map (fun (p : E.prim) ->
             {
               E.p_src = p.E.p_dst;
               p_dst = p.E.p_src;
               p_label = invert_label p.E.p_label;
             })
  | Ast.Star _ when a = b ->
      (* the reflexive part always covers (a, a) *)
      [ prim "id" ]
  | Ast.Plus inner | Ast.Star inner -> (
      match Option.bind (try_rel pt inner) (fun base -> bfs_path base a b) with
      | Some path ->
          List.concat_map
            (fun (x, y) -> prims stages pt inner x y)
            (consecutive path)
      | None -> opaque ())
  | Ast.Opt inner ->
      if mem_of pt inner a b then prims stages pt inner a b else [ prim "id" ]
  | Ast.App (f, arg) -> (
      (* the body, in its definition's scope, with the parameter bound
         to the argument's value for membership tests and defined by
         the argument's expression, so that the body's decomposition
         recurses into the argument *)
      match Interp.inline pt.env pt.scope f arg with
      | Some (body, scope, env) -> prims stages { scope; env } body a b
      | None | (exception Interp.Type_error _) -> opaque ())

(* ------------------------------------------------------------------ *)
(* Building explanations for one execution                             *)
(* ------------------------------------------------------------------ *)

let max_empty_pairs = 16

let kind_of = function
  | Ast.Acyclic -> E.Acyclic
  | Ast.Irreflexive -> E.Irreflexive
  | Ast.Is_empty -> E.Nonempty

(* A name's relation at a program point. *)
let resolver pt name =
  match Interp.eval_expr pt.env pt.scope (Ast.Id name) with
  | Interp.Vrel r -> Some r
  | Interp.Vset s -> Some (Rel.id_of_set s)
  | Interp.Vfun -> None
  | exception Interp.Type_error _ -> None

let step stages pt checked a b =
  let label, prims = decompose stages pt checked a b in
  { E.src = a; dst = b; label; prims }

let build stages (x : Exec.t) (kind, e, name, pt) =
  let name = Option.value ~default:"(unnamed)" name in
  let finish steps =
    let t =
      {
        E.check = name;
        kind = kind_of kind;
        steps;
        events = E.events_of_steps x.Exec.events steps;
      }
    in
    E.validate ~resolve:(resolver pt) t;
    Some t
  in
  match kind with
  | Ast.Acyclic -> (
      let r = Interp.as_rel (Interp.eval_expr pt.env pt.scope e) in
      match Rel.find_cycle r with
      | None -> None (* cannot happen for a failed acyclic check *)
      | Some cycle ->
          finish
            (List.map (fun (a, b) -> step stages pt e a b) (consecutive cycle))
      )
  | Ast.Irreflexive -> (
      let r = Interp.as_rel (Interp.eval_expr pt.env pt.scope e) in
      match List.find_opt (fun (a, b) -> a = b) (Rel.to_list r) with
      | None -> None
      | Some (a, _) -> finish [ step stages pt e a a ])
  | Ast.Is_empty -> (
      match Interp.eval_expr pt.env pt.scope e with
      | Interp.Vset s ->
          let label = render e in
          Iset.elements s
          |> List.filteri (fun i _ -> i < max_empty_pairs)
          |> List.map (fun a ->
                 { E.src = a; dst = a; label; prims = [] })
          |> finish
      | v ->
          let pairs = Rel.to_list (Interp.as_rel v) in
          List.filteri (fun i _ -> i < max_empty_pairs) pairs
          |> List.map (fun (a, b) -> step stages pt e a b)
          |> finish)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* [explainer ?budget model] compiles [model] once; the function it
   returns explains every failed check of the model on a candidate, []
   iff the candidate is consistent. *)
let explainer ?budget (model : Ast.t) : Exec.t -> E.t list =
  let c = Interp.compile model in
  fun x ->
    let env, failed = replay ?budget c model x in
    List.filter_map (build (Interp.stages env) x) failed

(* A membership resolver over [model]'s full environment on [x] (every
   primitive and defined relation name), for re-validating explanations
   outside the engine. *)
let resolver ?budget (model : Ast.t) (x : Exec.t) =
  let c = Interp.compile model in
  let env, _ = replay ?budget c model x in
  resolver { scope = Interp.scope_at c (List.length model.Ast.stmts); env }

(* The [as] names of a model's checks, in source order (for
   [--explain-diff]). *)
let check_names (model : Ast.t) =
  List.filter_map
    (function
      | Ast.Check (_, _, name) -> Some (Option.value ~default:"(unnamed)" name)
      | Ast.Let _ -> None)
    model.Ast.stmts
