(* Interpreter for the cat subset: evaluates a model's statements against
   the base relations of candidate executions, in the style of the herd
   simulator.

   One evaluator serves one candidate and a batch of up to 63 alike.  A
   relation that varies across the candidates of a batch — the witness
   relations and everything computed from them — is a value of
   candidate-major bit planes ({!Rel.Batch}); every other value is
   shared by all of them.  Each operator applies the scalar [Rel]
   operation when no operand is a plane, and otherwise the [Rel.Batch]
   one, broadcasting scalar operands into the live planes.  A single
   candidate is the batch of one with no planes. *)

module Iset = Rel.Iset
module B = Rel.Batch

type value =
  | Vset of Iset.t
  | Vrel of Rel.t
  | Vplanes of B.t (* relation-valued, one plane per candidate *)
  | Vfun of string list * Ast.expr * (string * value) list

and env = {
  universe : Iset.t;
  n : int; (* events per candidate: the shared universe size *)
  mask : int; (* live candidates: where broadcasts land, checks decide *)
  bindings : (string * value) list;
}

exception Type_error of string

let lookup env x =
  match List.assoc_opt x env.bindings with
  | Some v -> v
  | None -> raise (Type_error ("unbound identifier " ^ x))

let bind env x v = { env with bindings = (x, v) :: env.bindings }

(* Sets appearing where a relation is expected become identities, the
   usual [S] coercion. *)
let as_rel = function
  | Vrel r -> r
  | Vset s -> Rel.id_of_set s
  | Vplanes _ -> invalid_arg "Interp.as_rel: bit planes"
  | Vfun _ -> raise (Type_error "function used as a relation")

(* The dialect has no relation-to-set operator, so planes are always
   relation-valued: a plane in set position is the scalar evaluator's
   relation in set position, with the same error. *)
let as_set = function
  | Vset s -> s
  | Vrel _ | Vplanes _ -> raise (Type_error "relation used as a set")
  | Vfun _ -> raise (Type_error "function used as a set")

let planes env = function
  | Vplanes p -> p
  | v -> B.broadcast ~n:env.n ~mask:env.mask (as_rel v)

let unop f fb = function
  | Vplanes p -> Vplanes (fb p)
  | v -> Vrel (f (as_rel v))

let binop env f fb v1 v2 =
  match (v1, v2) with
  | Vplanes _, _ | _, Vplanes _ -> Vplanes (fb (planes env v1) (planes env v2))
  | _ -> Vrel (f (as_rel v1) (as_rel v2))

let rec eval env (e : Ast.expr) =
  match e with
  | Ast.Id x -> lookup env x
  | Ast.Empty_rel -> Vrel Rel.empty
  | Ast.Union (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.union s1 s2)
      | v1, v2 -> binop env Rel.union B.union v1 v2)
  | Ast.Inter (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.inter s1 s2)
      | v1, v2 -> binop env Rel.inter B.inter v1 v2)
  | Ast.Diff (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.diff s1 s2)
      | v1, v2 -> binop env Rel.diff B.diff v1 v2)
  | Ast.Seq (a, b) -> binop env Rel.seq B.seq (eval env a) (eval env b)
  | Ast.Cartesian (a, b) ->
      Vrel (Rel.cartesian (as_set (eval env a)) (as_set (eval env b)))
  | Ast.Inverse a -> unop Rel.inverse B.inverse (eval env a)
  | Ast.Plus a -> unop Rel.transitive_closure B.transitive_closure (eval env a)
  | Ast.Star a ->
      unop
        (Rel.reflexive_transitive_closure ~universe:env.universe)
        (B.reflexive_transitive_closure ~mask:env.mask)
        (eval env a)
  | Ast.Opt a ->
      unop
        (Rel.reflexive_closure ~universe:env.universe)
        (B.reflexive_closure ~mask:env.mask)
        (eval env a)
  | Ast.Complement a -> (
      match eval env a with
      | Vset s -> Vset (Iset.diff env.universe s)
      | v ->
          unop
            (Rel.complement ~universe:env.universe)
            (B.complement ~mask:env.mask) v)
  | Ast.Bracket a -> Vrel (Rel.id_of_set (as_set (eval env a)))
  | Ast.App (f, arg) -> (
      match lookup env f with
      | Vfun ([ p ], body, closure) ->
          (* the definition's bindings, the caller's candidates *)
          eval { env with bindings = (p, eval env arg) :: closure } body
      | Vfun (ps, _, _) ->
          raise
            (Type_error
               (Printf.sprintf "%s expects %d arguments" f (List.length ps)))
      | _ -> raise (Type_error (f ^ " is not a function")))

(* Equality for the Kleene convergence test: plane-wise as soon as one
   side varies per candidate. *)
let equal env v1 v2 =
  match (v1, v2) with
  | Vplanes _, _ | _, Vplanes _ -> B.equal (planes env v1) (planes env v2)
  | _ -> Rel.equal (as_rel v1) (as_rel v2)

(* Evaluate one let group; recursive groups are solved by Kleene iteration
   from empty relations (cat's rec is a least fixed point of monotone
   equations).  [?budget] bounds the iteration wall-clock: each Kleene
   step probes the deadline, so a pathological model gives up instead of
   spinning its full 1000-round allowance on big relations. *)

let c_fixpoint = Obs.Counter.make "cat.fixpoint_iters"

let eval_let ?budget env bindings is_rec =
  if not is_rec then
    List.fold_left
      (fun env' (name, params, body) ->
        match params with
        | [] -> bind env' name (eval env body)
        | ps -> bind env' name (Vfun (ps, body, env.bindings)))
      env bindings
  else begin
    let names = List.map (fun (n, _, _) -> n) bindings in
    let start =
      List.fold_left (fun e n -> bind e n (Vrel Rel.empty)) env names
    in
    let step e =
      List.fold_left
        (fun acc (name, params, body) ->
          if params <> [] then
            raise (Type_error "recursive functions are not supported");
          bind acc name (eval e body))
        e bindings
    in
    let values e = List.map (lookup e) names in
    let rec go e n =
      if n > 1000 then raise (Type_error "rec definition did not converge");
      Option.iter Exec.Budget.check_time budget;
      Obs.Counter.incr c_fixpoint;
      let e' = step e in
      (* [n + 1], not [n]: the round counter must actually advance for the
         1000-round allowance to mean anything (an unbudgeted divergent
         model previously looped forever here) *)
      if List.for_all2 (equal env) (values e) (values e') then e'
      else go e' (n + 1)
    in
    go start 0
  end

(* The live candidates on which a check holds. *)
let check env kind e =
  let decide holds = if holds then env.mask else 0 in
  match (kind, eval env e) with
  | Ast.Acyclic, Vplanes p -> B.acyclic_mask ~mask:env.mask p
  | Ast.Irreflexive, Vplanes p -> B.irreflexive_mask ~mask:env.mask p
  | Ast.Is_empty, Vplanes p -> B.empty_mask ~mask:env.mask p
  | Ast.Acyclic, v -> decide (Rel.is_acyclic (as_rel v))
  | Ast.Irreflexive, v -> decide (Rel.is_irreflexive (as_rel v))
  | Ast.Is_empty, Vset s -> decide (Iset.is_empty s)
  | Ast.Is_empty, v -> decide (Rel.is_empty (as_rel v))

type outcome = { check_name : string; kind : Ast.check_kind; holds : bool }

(* Run all statements; returns the outcome of every constraint.  With a
   budget, the deadline is probed between statements and inside recursive
   fixpoints (raising {!Exec.Budget.Exceeded}). *)
let run ?budget (model : Ast.t) env =
  let rec go env acc = function
    | [] -> List.rev acc
    | Ast.Let (bs, is_rec) :: rest ->
        Option.iter Exec.Budget.tick budget;
        go (eval_let ?budget env bs is_rec) acc rest
    | Ast.Check (kind, e, name) :: rest ->
        Option.iter Exec.Budget.tick budget;
        let check_name = Option.value ~default:"(unnamed)" name in
        go env ({ check_name; kind; holds = check env kind e <> 0 } :: acc) rest
  in
  go env [] model.stmts

(* ------------------------------------------------------------------ *)
(* Static-prefix evaluation                                            *)
(* ------------------------------------------------------------------ *)

(* Candidate executions of one litmus test share their event structure
   (events, po, addr, data, ctrl, rmw and every predefined set) across
   all rf/co witnesses; only rf, co and their derivatives change.  A
   binding whose free identifiers never reach a witness-dependent name
   therefore has the same value for every candidate, and can be computed
   once per event structure instead of once per candidate.

   [compile] finds those bindings, once per model: a statement is static
   iff every free identifier of its bodies is static at that program
   point, starting from the predefined environment minus the witness
   relations, and tracking shadowing (rebinding a name with a dynamic
   definition makes later uses dynamic).  [prefix] evaluates the static
   statements against one candidate's environment; [run_with_prefix]
   then replays the statement list in source order, pulling static
   bindings and static check outcomes from the prefix and evaluating
   only the dynamic remainder, so results are identical to {!run}. *)

module Sset = Set.Make (String)

(* The predefined names that depend on the execution witness (rf, co),
   with their relation in a candidate. *)
let witness : (string * (Exec.t -> Rel.t)) list =
  [
    ("rf", fun x -> x.rf);
    ("co", fun x -> x.co);
    ("fr", fun x -> x.fr);
    ("rfi", fun x -> x.rfi);
    ("rfe", fun x -> x.rfe);
    ("coi", fun x -> x.coi);
    ("coe", fun x -> x.coe);
    ("fri", fun x -> x.fri);
    ("fre", fun x -> x.fre);
    ("com", fun x -> x.com);
  ]

let witness_names = List.map fst witness

(* Every other predefined name is a function of the event structure. *)
let structural : (string * (Exec.t -> value)) list =
  let set (f : Exec.t -> Iset.t) x = Vset (f x)
  and rel (f : Exec.t -> Rel.t) x = Vrel (f x) in
  let annot a x = Vset (Exec.events_where x (fun e -> e.Exec.Event.annot = a)) in
  [
    ("_", set (fun x -> x.universe));
    ("W", set (fun x -> x.writes));
    ("R", set (fun x -> x.reads));
    ("M", set (fun x -> x.mem));
    ("F", set (fun x -> x.fences));
    ("IW", set (fun x -> x.init_ws));
    ("Once", annot Exec.Event.Once);
    ("Acquire", annot Exec.Event.Acquire);
    ("Release", annot Exec.Event.Release);
    ("Rmb", annot Exec.Event.Rmb);
    ("Wmb", annot Exec.Event.Wmb);
    ("Mb", annot Exec.Event.Mb);
    ("Rb-dep", annot Exec.Event.Rb_dep);
    ("Sync", annot Exec.Event.Sync_rcu);
    ("Rcu-lock", annot Exec.Event.Rcu_lock);
    ("Rcu-unlock", annot Exec.Event.Rcu_unlock);
    ("po", rel (fun x -> x.po));
    ("addr", rel (fun x -> x.addr));
    ("data", rel (fun x -> x.data));
    ("ctrl", rel (fun x -> x.ctrl));
    ("rmw", rel (fun x -> x.rmw));
    ("po-loc", rel (fun x -> x.po_loc));
    ("loc", rel (fun x -> x.loc_r));
    ("int", rel (fun x -> x.int_r));
    ("ext", rel (fun x -> x.ext_r));
    ("id", rel (fun x -> x.id_r));
    ("crit", rel (fun x -> x.crit));
  ]

let structural_names = List.map fst structural

let rec free_ids acc = function
  | Ast.Id x -> Sset.add x acc
  | Ast.Empty_rel -> acc
  | Ast.Union (a, b) | Ast.Inter (a, b) | Ast.Diff (a, b) | Ast.Seq (a, b)
  | Ast.Cartesian (a, b) ->
      free_ids (free_ids acc a) b
  | Ast.Inverse a | Ast.Plus a | Ast.Star a | Ast.Opt a | Ast.Complement a
  | Ast.Bracket a ->
      free_ids acc a
  | Ast.App (f, arg) -> free_ids (Sset.add f acc) arg

type compiled = {
  model : Ast.t;
  static_stmt : bool array; (* per statement, in source order *)
  last_check : int; (* index of the model's last check, or -1 *)
}

let compile (model : Ast.t) =
  let static_stmt = Array.make (List.length model.stmts) false in
  let static = ref (Sset.of_list structural_names) in
  let last_check = ref (-1) in
  List.iteri
    (fun i stmt ->
      match stmt with
      | Ast.Let (bs, is_rec) ->
          let names = List.map (fun (n, _, _) -> n) bs in
          let stmt_static =
            List.for_all
              (fun (_, params, body) ->
                let frees = free_ids Sset.empty body in
                let frees =
                  List.fold_right Sset.remove params
                    (if is_rec then List.fold_right Sset.remove names frees
                     else frees)
                in
                Sset.subset frees !static)
              bs
          in
          static_stmt.(i) <- stmt_static;
          static :=
            List.fold_left
              (fun s n ->
                if stmt_static then Sset.add n s else Sset.remove n s)
              !static names
      | Ast.Check (_, e, _) ->
          last_check := i;
          static_stmt.(i) <- Sset.subset (free_ids Sset.empty e) !static)
    model.stmts;
  { model; static_stmt; last_check = !last_check }

type prefix = {
  compiled : compiled;
  lets : (string * value) list array;
      (* for a static Let at index i: its bindings, innermost first *)
  checks : bool array; (* for a static Check at index i: whether it holds *)
}

let rec first_n n l =
  if n = 0 then []
  else
    match l with
    | x :: rest -> x :: first_n (n - 1) rest
    | [] -> invalid_arg "first_n"

let prefix ?budget compiled env =
  Obs.with_span "prefix-eval" (fun () ->
      let n = List.length compiled.model.stmts in
      let lets = Array.make n [] and checks = Array.make n false in
      let env = ref env in
      List.iteri
        (fun i stmt ->
          if compiled.static_stmt.(i) then begin
            Option.iter Exec.Budget.tick budget;
            match stmt with
            | Ast.Let (bs, is_rec) ->
                let before = List.length !env.bindings in
                env := eval_let ?budget !env bs is_rec;
                lets.(i) <-
                  first_n (List.length !env.bindings - before) !env.bindings
            | Ast.Check (kind, e, _) -> checks.(i) <- check !env kind e <> 0
          end)
        compiled.model.stmts;
      { compiled; lets; checks })

let c_early = Obs.Counter.make "cat.batch.early_exit"

(* Replay the statement list: static lets and checks come from the
   prefix, the dynamic remainder is evaluated.  Returns the live
   candidates that satisfy every check.  Statements are never skipped —
   a model raises its [Type_error] whatever the candidates — but the
   live mask shrinks as checks fail, so later broadcasts and closures
   stop paying for decided candidates (their planes zero out and the
   kernels skip zero words). *)
let run_with_prefix ?budget { compiled; lets; checks } env =
  let rec go i env = function
    | [] -> env.mask
    | Ast.Let (bs, is_rec) :: rest ->
        let env =
          if compiled.static_stmt.(i) then
            List.fold_right (fun (n, v) e -> bind e n v) lets.(i) env
          else begin
            Option.iter Exec.Budget.tick budget;
            eval_let ?budget env bs is_rec
          end
        in
        go (i + 1) env rest
    | Ast.Check (kind, e, _) :: rest ->
        let holds =
          if compiled.static_stmt.(i) then
            if checks.(i) then env.mask else 0
          else begin
            Option.iter Exec.Budget.tick budget;
            check env kind e
          end
        in
        (* candidates decided before the final check are early exits *)
        if i <> compiled.last_check then
          Obs.Counter.add c_early (B.popcount (env.mask land lnot holds));
        go (i + 1) { env with mask = holds } rest
  in
  go 0 env compiled.model.stmts

(* ------------------------------------------------------------------ *)
(* The predefined environment of candidate executions                  *)
(* ------------------------------------------------------------------ *)

let env_of ~mask (x : Exec.t) witness_value =
  {
    universe = x.universe;
    n = Array.length x.events;
    mask;
    bindings =
      List.map witness_value witness
      @ List.map (fun (nm, f) -> (nm, f x)) structural;
  }

let env_of_execution x = env_of ~mask:1 x (fun (nm, f) -> (nm, Vrel (f x)))

(* One shared event structure, up to 63 witnesses: structural bindings
   come from candidate 0 (identical in every candidate by construction),
   the witness relations become candidate-major bit planes. *)
let env_of_executions ~mask (xs : Exec.t array) =
  let n = Array.length xs.(0).events in
  env_of ~mask xs.(0) (fun (nm, f) ->
      (nm, Vplanes (B.of_rels ~n ~mask (Array.map f xs))))
