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
   so shadowing and [let rec] fixpoints resolve exactly as the
   interpreter resolved them) and evaluated on the slot array of one
   replay of the model, which holds every program point's values.  A
   [Union] picks the matching side; a [Seq] finds a midpoint; [Plus]/[Star]
   find a shortest path through the base relation and decompose each
   hop; [Inverse] decomposes the flipped edge and tags labels with
   [^-1]; an [Id] bound by a [let] recurses into its body (guarded
   against recursive definitions such as [rcu-path] by a visiting set —
   a revisited name becomes an opaque primitive, which still
   re-validates by membership); function application ([A-cumul(r)])
   substitutes the argument expression for the parameter.  [Cartesian]
   and [Complement] edges stay opaque: their pairs are not produced by
   other edges.

   Every explanation is passed through {!Exec.Explain.validate} against
   the model's own environment before it is released — the resolver
   maps relation names back to their evaluated values, so each reported
   edge is re-checked for membership in the relation its label names.
   A failure there raises {!Exec.Explain.Invalid}: a hard error by
   design (ISSUE 5), never a silently wrong diagram. *)

module E = Exec.Explain
module Iset = Rel.Iset
module Sset = Set.Make (String)

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

let max_depth = 400

(* Calls to [decompose] per witness step: through [rcu-path] the
   backtracking grows exponentially on RCU cycles of three links.  The
   corpus needs at most 96 on lk.cat; 10,000 take about 20 ms. *)
let max_work = 10_000

(* A decomposition is unproductive when it contains a prim produced by
   the recursion guard: the same definition name on the same edge as a
   frame already on the decomposition stack. *)
let productive visiting prims =
  not
    (List.exists
       (fun (p : E.prim) ->
         List.mem (p.E.p_label, p.E.p_src, p.E.p_dst) visiting)
       prims)

(* [decompose] returns a primitive path from [a] to [b], assuming
   (a, b) is an edge of [eval env e] (the caller established that by
   membership).  [opaque] is the safety net everywhere: an edge we
   cannot (or choose not to) split, or meet once [fuel] (the step's
   remaining calls) is spent, becomes one primitive carrying the
   rendered expression — named opaque edges still re-validate by
   membership, rendered ones structurally.

   [visiting] guards recursive definitions by (name, edge), not name
   alone: [rcu-path] on a *sub*-edge of the one being decomposed is
   genuine progress (the Seq split of [rcu-path ; rcu-path] hands each
   half a shorter edge), while the same name on the same edge means the
   recursion made no progress and must stop. *)
let rec decompose ~fuel ~visiting ~depth pt (e : Ast.expr) a b :
    E.prim list =
  let opaque () = [ { E.p_src = a; p_dst = b; p_label = render e } ] in
  decr fuel;
  if depth > max_depth || !fuel < 0 then opaque ()
  else
    match e with
    | Ast.Id "com" ->
        (* predefined rf | co | fr: split for herd-style labels *)
        let pick n = mem_of pt (Ast.Id n) a b in
        let l = if pick "rf" then "rf" else if pick "co" then "co" else "fr" in
        [ { E.p_src = a; p_dst = b; p_label = l } ]
    | Ast.Id x -> (
        match Interp.definition pt.scope x with
        | Some (body, scope) when not (List.mem (x, a, b) visiting) ->
            decompose ~fuel
              ~visiting:((x, a, b) :: visiting)
              ~depth:(depth + 1) { pt with scope } body a b
        | _ ->
            (* predefined, unproductive revisit, function or unknown:
               opaque, but a bound name still validates by membership *)
            [ { E.p_src = a; p_dst = b; p_label = x } ])
    | Ast.Empty_rel -> opaque ()
    | Ast.Union (l, r) -> (
        (* prefer a branch whose decomposition makes progress: a
           recursive definition's trivial branch ([rcu-path ;
           rcu-path] contains (a,a) as soon as (a,a) is in rcu-path)
           matches first but decomposes into guard-stopped prims, while
           a later branch ([gp-link ; rscs-link]) carries the real
           derivation *)
        let try_branch e' =
          if mem_of pt e' a b then
            Some (decompose ~fuel ~visiting ~depth:(depth + 1) pt e' a b)
          else None
        in
        match try_branch l with
        | Some dl when productive visiting dl -> dl
        | dl -> (
            match try_branch r with
            | Some dr when productive visiting dr -> dr
            | dr -> (
                match (dl, dr) with
                | Some d, _ | _, Some d -> d
                | None, None -> opaque ())))
    | Ast.Inter (l, r) ->
        (* both operands contain the edge; decompose the more telling
           one (more primitives — [rmw & (fre ; coe)] shows fre;coe) *)
        let dl = decompose ~fuel ~visiting ~depth:(depth + 1) pt l a b
        and dr = decompose ~fuel ~visiting ~depth:(depth + 1) pt r a b in
        if List.length dr > List.length dl then dr else dl
    | Ast.Diff (l, _) ->
        decompose ~fuel ~visiting ~depth:(depth + 1) pt l a b
    | Ast.Seq (l, r) -> (
        match (try_rel pt l, try_rel pt r) with
        | Some rl, Some rr -> (
            (* candidate midpoints m with (a,m) in l and (m,b) in r,
               strict ones (distinct from both endpoints) first: a
               degenerate midpoint hands one half the original edge
               back, which only a recursion guard can stop *)
            let mids = ref [] in
            Rel.iter
              (fun x y -> if x = a && Rel.mem y b rr then mids := y :: !mids)
              rl;
            let strict, degen =
              List.partition (fun m -> m <> a && m <> b) (List.rev !mids)
            in
            let split m =
              decompose ~fuel ~visiting ~depth:(depth + 1) pt l a m
              @ decompose ~fuel ~visiting ~depth:(depth + 1) pt r m b
            in
            let rec try_mids fallback budget = function
              | [] -> (
                  match fallback with Some d -> d | None -> opaque ())
              | m :: rest ->
                  if budget = 0 then
                    match fallback with Some d -> d | None -> split m
                  else
                    let d = split m in
                    if productive visiting d then d
                    else
                      try_mids
                        (if fallback = None then Some d else fallback)
                        (budget - 1) rest
            in
            try_mids None 8 (strict @ degen))
        | _ -> opaque ())
    | Ast.Inverse inner ->
        decompose ~fuel ~visiting ~depth:(depth + 1) pt inner b a
        |> List.rev_map (fun (p : E.prim) ->
               {
                 E.p_src = p.E.p_dst;
                 p_dst = p.E.p_src;
                 p_label = invert_label p.E.p_label;
               })
    | Ast.Star _ when a = b ->
        (* the reflexive part always covers (a, a) *)
        [ { E.p_src = a; p_dst = b; p_label = "id" } ]
    | Ast.Plus inner | Ast.Star inner -> (
        match try_rel pt inner with
        | Some base -> (
            match bfs_path base a b with
            | Some path ->
                let rec hops = function
                  | x :: (y :: _ as rest) ->
                      decompose ~fuel ~visiting ~depth:(depth + 1) pt inner x y
                      @ hops rest
                  | _ -> []
                in
                hops path
            | None -> opaque ())
        | None -> opaque ())
    | Ast.Opt inner ->
        if mem_of pt inner a b then
          decompose ~fuel ~visiting ~depth:(depth + 1) pt inner a b
        else [ { E.p_src = a; p_dst = b; p_label = "id" } ]
    | Ast.Cartesian _ | Ast.Complement _ -> opaque ()
    | Ast.Bracket _ -> [ { E.p_src = a; p_dst = b; p_label = render e } ]
    | Ast.App (f, _) when List.mem (f, a, b) visiting -> opaque ()
    | Ast.App (f, arg) -> (
        (* the body, in its definition's scope, with the parameter bound
           to the argument's value for membership tests and defined by
           the argument's expression, so that the body's decomposition
           recurses into the argument *)
        match Interp.inline pt.env pt.scope f arg with
        | Some (body, scope, env) ->
            decompose ~fuel ~visiting:((f, a, b) :: visiting) ~depth:(depth + 1)
              { scope; env } body a b
        | None | (exception Interp.Type_error _) -> opaque ())

(* ------------------------------------------------------------------ *)
(* Herd-style edge labels for the witness steps                        *)
(* ------------------------------------------------------------------ *)

(* The label of a cycle edge is the branch of the checked relation the
   edge belongs to: checking [hb = ((prop \ id) & int) | ppo | rfe]
   labels each edge "ppo", "rfe" or the rendered first branch.  Named
   definitions are descended only while they keep splitting into
   unions; the first non-union name ("ppo") is the label herd users
   expect.  Branches that mention a definition being expanded are
   deprioritised — [rcu-path ; rcu-path] contains every edge of
   rcu-path trivially, while [rscs-link ; gp-link] names the actual
   derivation. *)
let rec mentions n = function
  | Ast.Id x -> x = n
  | Ast.Empty_rel -> false
  | Ast.Union (a, b) | Ast.Inter (a, b) | Ast.Diff (a, b) | Ast.Seq (a, b)
  | Ast.Cartesian (a, b) ->
      mentions n a || mentions n b
  | Ast.Inverse a | Ast.Plus a | Ast.Star a | Ast.Opt a | Ast.Complement a
  | Ast.Bracket a ->
      mentions n a
  | Ast.App (f, arg) -> f = n || mentions n arg

let rec branch_label ~visiting pt (e : Ast.expr) a b =
  match e with
  | Ast.Id "com" ->
      let pick n = mem_of pt (Ast.Id n) a b in
      if pick "rf" then "rf" else if pick "co" then "co" else "fr"
  | Ast.Id x -> (
      match Interp.definition pt.scope x with
      | Some ((Ast.Union _ as body), scope) when not (Sset.mem x visiting) ->
          branch_label ~visiting:(Sset.add x visiting) { pt with scope } body
            a b
      | _ -> x)
  | Ast.Union _ -> (
      let rec flat = function
        | Ast.Union (l, r) -> flat l @ flat r
        | e' -> [ e' ]
      in
      let self e' = Sset.exists (fun n -> mentions n e') visiting in
      let matching = List.filter (fun e' -> mem_of pt e' a b) (flat e) in
      match
        ( List.find_opt (fun e' -> not (self e')) matching,
          matching )
      with
      | Some e', _ | None, e' :: _ -> branch_label ~visiting pt e' a b
      | None, [] -> render e)
  | _ -> render e

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
  | Interp.Vplanes _ | Interp.Vfun -> None
  | exception Interp.Type_error _ -> None

let step pt checked a b =
  {
    E.src = a;
    dst = b;
    label = branch_label ~visiting:Sset.empty pt checked a b;
    prims =
      decompose ~fuel:(ref max_work) ~visiting:[] ~depth:0 pt checked a b;
  }

let rec consecutive = function
  | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
  | _ -> []

let build (x : Exec.t) (kind, e, name, pt) =
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
          finish (List.map (fun (a, b) -> step pt e a b) (consecutive cycle))
      )
  | Ast.Irreflexive -> (
      let r = Interp.as_rel (Interp.eval_expr pt.env pt.scope e) in
      match List.find_opt (fun (a, b) -> a = b) (Rel.to_list r) with
      | None -> None
      | Some (a, _) -> finish [ step pt e a a ])
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
          |> List.map (fun (a, b) -> step pt e a b)
          |> finish)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* [explainer ?budget model] compiles [model] once; the function it
   returns explains every failed check of the model on a candidate, []
   iff the candidate is consistent. *)
let explainer ?budget (model : Ast.t) : Exec.t -> E.t list =
  let c = Interp.compile model in
  fun x -> List.filter_map (build x) (snd (replay ?budget c model x))

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
