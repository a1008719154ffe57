(* Reference interpreter for the cat subset: the executable
   specification of {!Cat.Interp}.  It walks the AST on one candidate,
   looking every name up in a string-keyed environment, and a function
   is a closure over the bindings of its definition, applied to the
   caller's argument value.  Statics and prefix caching, slots, inlining
   and bit planes are all absent, so it cannot share a fault with them.
   Raises {!Cat.Interp.Type_error} with the messages the compiled
   evaluator must reproduce. *)

module Iset = Rel.Iset
module Ast = Cat.Ast

exception Type_error = Cat.Interp.Type_error

type value =
  | Vset of Iset.t
  | Vrel of Rel.t
  | Vfun of string list * Ast.expr * (string * value) list
      (* parameters, body and the bindings of its definition *)

type env = { universe : Iset.t; bindings : (string * value) list }

let lookup env x =
  match List.assoc_opt x env.bindings with
  | Some v -> v
  | None -> raise (Type_error ("unbound identifier " ^ x))

let bind env x v = { env with bindings = (x, v) :: env.bindings }

let as_rel = function
  | Vrel r -> r
  | Vset s -> Rel.id_of_set s
  | Vfun _ -> raise (Type_error "function used as a relation")

let as_set = function
  | Vset s -> s
  | Vrel _ -> raise (Type_error "relation used as a set")
  | Vfun _ -> raise (Type_error "function used as a set")

let rel f v1 v2 = Vrel (f (as_rel v1) (as_rel v2))

let rec eval env (e : Ast.expr) =
  match e with
  | Ast.Id x -> lookup env x
  | Ast.Empty_rel -> Vrel Rel.empty
  | Ast.Union (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.union s1 s2)
      | v1, v2 -> rel Rel.union v1 v2)
  | Ast.Inter (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.inter s1 s2)
      | v1, v2 -> rel Rel.inter v1 v2)
  | Ast.Diff (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.diff s1 s2)
      | v1, v2 -> rel Rel.diff v1 v2)
  | Ast.Seq (a, b) -> rel Rel.seq (eval env a) (eval env b)
  | Ast.Cartesian (a, b) ->
      Vrel (Rel.cartesian (as_set (eval env a)) (as_set (eval env b)))
  | Ast.Inverse a -> Vrel (Rel.inverse (as_rel (eval env a)))
  | Ast.Plus a -> Vrel (Rel.transitive_closure (as_rel (eval env a)))
  | Ast.Star a ->
      Vrel
        (Rel.reflexive_transitive_closure ~universe:env.universe
           (as_rel (eval env a)))
  | Ast.Opt a ->
      Vrel (Rel.reflexive_closure ~universe:env.universe (as_rel (eval env a)))
  | Ast.Complement a -> (
      match eval env a with
      | Vset s -> Vset (Iset.diff env.universe s)
      | v -> Vrel (Rel.complement ~universe:env.universe (as_rel v)))
  | Ast.Bracket a -> Vrel (Rel.id_of_set (as_set (eval env a)))
  | Ast.App (f, arg) -> (
      match lookup env f with
      | Vfun ([ p ], body, closure) ->
          eval { env with bindings = (p, eval env arg) :: closure } body
      | Vfun (ps, _, _) ->
          raise
            (Type_error
               (Printf.sprintf "%s expects %d arguments" f (List.length ps)))
      | _ -> raise (Type_error (f ^ " is not a function")))

(* One [let] group; a recursive one is solved by Kleene iteration from
   empty relations, every body evaluated on the previous round. *)
let eval_let env bindings is_rec =
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
    let equal v1 v2 = Rel.equal (as_rel v1) (as_rel v2) in
    let rec go e n =
      if n > 1000 then raise (Type_error "rec definition did not converge");
      let e' = step e in
      if List.for_all2 equal (values e) (values e') then e' else go e' (n + 1)
    in
    go start 0
  end

type outcome = { check_name : string; holds : bool }

let check env kind e =
  match (kind, eval env e) with
  | Ast.Acyclic, v -> Rel.is_acyclic (as_rel v)
  | Ast.Irreflexive, v -> Rel.is_irreflexive (as_rel v)
  | Ast.Is_empty, Vset s -> Iset.is_empty s
  | Ast.Is_empty, v -> Rel.is_empty (as_rel v)

(* Every statement in source order; the outcome of every check. *)
let run (model : Ast.t) env =
  let rec go env acc = function
    | [] -> List.rev acc
    | Ast.Let (bs, is_rec) :: rest -> go (eval_let env bs is_rec) acc rest
    | Ast.Check (kind, e, name) :: rest ->
        let check_name = Option.value ~default:"(unnamed)" name in
        go env ({ check_name; holds = check env kind e } :: acc) rest
  in
  go env [] model.stmts

(* The predefined environment of a candidate. *)
let env_of_execution (x : Exec.t) =
  let annot a = Vset (Exec.events_where x (fun e -> e.Exec.Event.annot = a)) in
  {
    universe = x.universe;
    bindings =
      [
        ("rf", Vrel x.rf);
        ("co", Vrel x.co);
        ("fr", Vrel x.fr);
        ("rfi", Vrel x.rfi);
        ("rfe", Vrel x.rfe);
        ("coi", Vrel x.coi);
        ("coe", Vrel x.coe);
        ("fri", Vrel x.fri);
        ("fre", Vrel x.fre);
        ("com", Vrel x.com);
        ("_", Vset x.universe);
        ("W", Vset x.writes);
        ("R", Vset x.reads);
        ("M", Vset x.mem);
        ("F", Vset x.fences);
        ("IW", Vset x.init_ws);
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
        ("po", Vrel x.po);
        ("addr", Vrel x.addr);
        ("data", Vrel x.data);
        ("ctrl", Vrel x.ctrl);
        ("rmw", Vrel x.rmw);
        ("po-loc", Vrel x.po_loc);
        ("loc", Vrel x.loc_r);
        ("int", Vrel x.int_r);
        ("ext", Vrel x.ext_r);
        ("id", Vrel x.id_r);
        ("crit", Vrel x.crit);
      ];
  }

let outcomes model x = run model (env_of_execution x)

let consistent model x =
  List.for_all (fun o -> o.holds) (outcomes model x)

(* A scalar-only oracle on the reference interpreter. *)
let oracle ~name model =
  Exec.Oracle.scalar name (fun _ ->
      (module struct
        let name = name
        let consistent = consistent model
      end : Exec.Check.MODEL))
