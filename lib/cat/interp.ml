(* Interpreter for the cat subset, in slot form: a model is compiled once
   into code whose every name is resolved to a slot of an array
   environment, then evaluated against the base relations of candidate
   executions, in the style of the herd simulator.

   Compilation gives the 37 predefined names fixed slots and every [let]
   binding a slot of its own, so shadowing is settled before anything
   runs.  A function is not a run-time value: its body is inlined at
   each call site, in the scope of its definition, with its parameter
   bound to a slot that holds the argument.  A name that does not
   resolve compiles to a node that raises the interpreter's error when
   it is evaluated, so a faulty model fails at the statement that uses
   the name, on every engine.  Each slot is written by one program
   point only, so the array after a replay is an environment for every
   program point at once.  One candidate is evaluated at a time. *)

module Iset = Rel.Iset
module Smap = Map.Make (String)

type value = Vset of Iset.t | Vrel of Rel.t | Vfun
type env = { universe : Iset.t; slots : value array }

exception Type_error of string

(* Sets appearing where a relation is expected become identities, the
   usual [S] coercion. *)
let as_rel = function
  | Vrel r -> r
  | Vset s -> Rel.id_of_set s
  | Vfun -> raise (Type_error "function used as a relation")

let as_set = function
  | Vset s -> s
  | Vrel _ -> raise (Type_error "relation used as a set")
  | Vfun -> raise (Type_error "function used as a set")

let unop f v = Vrel (f (as_rel v))
let binop f v1 v2 = Vrel (f (as_rel v1) (as_rel v2))

(* ------------------------------------------------------------------ *)
(* Compiled expressions and their evaluation                           *)
(* ------------------------------------------------------------------ *)

type code =
  | Slot of int
  | Const of value (* [0], or a function named where a value is expected *)
  | Fail of string (* a name that does not resolve, a bad application *)
  | Union of code * code
  | Inter of code * code
  | Diff of code * code
  | Seq of code * code
  | Cartesian of code * code
  | Inverse of code
  | Plus of code
  | Star of code
  | Opt of code
  | Complement of code
  | Bracket of code
  | App of int * code * code (* parameter slot, argument, inlined body *)

let rec eval env = function
  | Slot i -> env.slots.(i)
  | Const v -> v
  | Fail msg -> raise (Type_error msg)
  | Union (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.union s1 s2)
      | v1, v2 -> binop Rel.union v1 v2)
  | Inter (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.inter s1 s2)
      | v1, v2 -> binop Rel.inter v1 v2)
  | Diff (a, b) -> (
      match (eval env a, eval env b) with
      | Vset s1, Vset s2 -> Vset (Iset.diff s1 s2)
      | v1, v2 -> binop Rel.diff v1 v2)
  | Seq (a, b) -> binop Rel.seq (eval env a) (eval env b)
  | Cartesian (a, b) ->
      Vrel (Rel.cartesian (as_set (eval env a)) (as_set (eval env b)))
  | Inverse a -> unop Rel.inverse (eval env a)
  | Plus a -> unop Rel.transitive_closure (eval env a)
  | Star a ->
      unop (Rel.reflexive_transitive_closure ~universe:env.universe) (eval env a)
  | Opt a -> unop (Rel.reflexive_closure ~universe:env.universe) (eval env a)
  | Complement a -> (
      match eval env a with
      | Vset s -> Vset (Iset.diff env.universe s)
      | v -> unop (Rel.complement ~universe:env.universe) v)
  | Bracket a -> Vrel (Rel.id_of_set (as_set (eval env a)))
  | App (p, arg, body) ->
      (* the argument, then the body *)
      env.slots.(p) <- eval env arg;
      eval env body

(* Equality for the Kleene convergence test. *)
let equal v1 v2 = Rel.equal (as_rel v1) (as_rel v2)

(* Whether a check holds. *)
let check env kind e =
  match (kind, eval env e) with
  | Ast.Acyclic, v -> Rel.is_acyclic (as_rel v)
  | Ast.Irreflexive, v -> Rel.is_irreflexive (as_rel v)
  | Ast.Is_empty, Vset s -> Iset.is_empty s
  | Ast.Is_empty, v -> Rel.is_empty (as_rel v)

(* ------------------------------------------------------------------ *)
(* The predefined names                                                *)
(* ------------------------------------------------------------------ *)

(* The predefined names that depend on the execution witness (rf, co),
   with their relation in a candidate: slots 0-9. *)
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

(* Every other predefined name is a function of the event structure:
   slots 10-36. *)
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

let witness_names = List.map fst witness
let structural_names = List.map fst structural
let witness_rel = Array.of_list (List.map snd witness)
let n_witness = Array.length witness_rel

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* What a name denotes at a program point.  [static] is the
   classification of the statement that bound it: computable from the
   event structure alone, or witness-dependent.  A value's [def] is the
   expression it was computed from and the scope that expression was
   compiled in (for a [let rec], the scope after the group), and
   [group] the slots and bodies of the [let rec] that binds it ([] for
   any other name), for {!Explain}; predefined names have no [def]. *)
type binding =
  | Val of {
      slot : int;
      static : bool;
      def : (Ast.expr * scope Lazy.t) option;
      group : (int * code) list;
    }
  | Fun of {
      params : string list;
      body : Ast.expr;
      scope : scope; (* of the definition *)
      static : bool;
    }

and scope = binding Smap.t

let predefined =
  List.fold_left
    (fun (s, i) x ->
      let v =
        Val { slot = i; static = i >= n_witness; def = None; group = [] }
      in
      (Smap.add x v s, i + 1))
    (Smap.empty, 0)
    (witness_names @ structural_names)
  |> fst

type ctx = {
  mutable next : int; (* the next free slot *)
  mutable dynamic : bool;
      (* a name resolved since the statement began is witness-dependent
         or unbound: the statement is not static *)
  reads : bool array; (* the witness slots resolved *)
}

let new_ctx next = { next; dynamic = false; reads = Array.make n_witness false }

let fresh ctx =
  let s = ctx.next in
  ctx.next <- s + 1;
  s

let note ctx static = if not static then ctx.dynamic <- true

(* A parameter bound to an argument: the function the argument denotes,
   if it denotes one, else the slot its value goes to. *)
let param ~slot arg scope arg_fun =
  match arg_fun with
  | Some f -> f
  | None ->
      Val
        { slot; static = true; def = Some (arg, Lazy.from_val scope);
          group = [] }

(* [compile_expr ctx scope e] is [e]'s code, and the function [e] denotes
   when it denotes one (a function's name, or an application whose
   inlined body denotes one).  Every name [e] mentions is noted in
   [ctx], the arguments of failing applications included, so that a
   statement is static exactly when every name it mentions is. *)
let rec compile_expr ctx scope (e : Ast.expr) =
  let one k a = (k (code ctx scope a), None)
  and two k a b =
    let a = code ctx scope a in
    (k a (code ctx scope b), None)
  in
  match e with
  | Ast.Id x -> (
      match Smap.find_opt x scope with
      | Some (Val { slot; static; _ }) ->
          note ctx static;
          if slot < n_witness then ctx.reads.(slot) <- true;
          (Slot slot, None)
      | Some (Fun { static; _ } as f) ->
          note ctx static;
          (Const Vfun, Some f)
      | None ->
          ctx.dynamic <- true;
          (Fail ("unbound identifier " ^ x), None))
  | Ast.Empty_rel -> (Const (Vrel Rel.empty), None)
  | Ast.Union (a, b) -> two (fun a b -> Union (a, b)) a b
  | Ast.Inter (a, b) -> two (fun a b -> Inter (a, b)) a b
  | Ast.Diff (a, b) -> two (fun a b -> Diff (a, b)) a b
  | Ast.Seq (a, b) -> two (fun a b -> Seq (a, b)) a b
  | Ast.Cartesian (a, b) -> two (fun a b -> Cartesian (a, b)) a b
  | Ast.Inverse a -> one (fun a -> Inverse a) a
  | Ast.Plus a -> one (fun a -> Plus a) a
  | Ast.Star a -> one (fun a -> Star a) a
  | Ast.Opt a -> one (fun a -> Opt a) a
  | Ast.Complement a -> one (fun a -> Complement a) a
  | Ast.Bracket a -> one (fun a -> Bracket a) a
  | Ast.App (f, arg) -> (
      let fail static msg =
        note ctx static;
        ignore (code ctx scope arg);
        (Fail msg, None)
      in
      match Smap.find_opt f scope with
      | Some (Fun { params = [ p ]; body; scope = fscope; static }) ->
          note ctx static;
          let arg_code, arg_fun = compile_expr ctx scope arg in
          let slot = fresh ctx in
          let fscope = Smap.add p (param ~slot arg scope arg_fun) fscope in
          let body_code, body_fun = compile_expr ctx fscope body in
          (App (slot, arg_code, body_code), body_fun)
      | Some (Fun { params; static; _ }) ->
          fail static
            (Printf.sprintf "%s expects %d arguments" f (List.length params))
      | Some (Val { static; _ }) -> fail static (f ^ " is not a function")
      | None -> fail false ("unbound identifier " ^ f))

and code ctx scope e = fst (compile_expr ctx scope e)

(* Whether a function body is static where it is defined: every name it
   mentions but its parameters is.  Compiled on a scratch context, and
   the code dropped — the body is compiled again at each call site. *)
let static_body scope params body =
  let probe = new_ctx 0 in
  let scope =
    List.fold_left
      (fun s p ->
        Smap.add p
          (Val { slot = fresh probe; static = true; def = None; group = [] })
          s)
      scope params
  in
  ignore (compile_expr probe scope body);
  not probe.dynamic

type op =
  | Let of (int * code) list (* each slot gets its body's value, in order *)
  | Let_rec of (int * code) list (* the least fixpoint, by Kleene iteration *)
  | Check of Ast.check_kind * code

(* One [let] group: the bodies are compiled in the scope before it, a
   function is only recorded.  A name bound to an expression denoting a
   function stays that function (with this statement's classification). *)
let compile_let ctx scope bs =
  let bodies =
    List.map
      (fun (x, params, body) ->
        match params with
        | [] -> (x, `Value (body, compile_expr ctx scope body))
        | ps ->
            if not (static_body scope ps body) then ctx.dynamic <- true;
            (x, `Fun (ps, body)))
      bs
  in
  let static = not ctx.dynamic in
  let defs = ref [] in
  let after =
    List.fold_left
      (fun s (x, b) ->
        let bound =
          match b with
          | `Fun (params, body) -> Fun { params; body; scope; static }
          | `Value (body, (c, f)) -> (
              let slot = fresh ctx in
              defs := (slot, c) :: !defs;
              match f with
              | Some (Fun f) -> Fun { f with static }
              | _ ->
                  let def = Some (body, Lazy.from_val scope) in
                  Val { slot; static; def; group = [] })
        in
        Smap.add x bound s)
      scope bodies
  in
  (Let (List.rev !defs), after)

(* A [let rec] group: every name, functions included, is a slot that
   starts empty; the bodies see the group's own slots.  A function's
   body raises when evaluated, as recursive functions are not
   supported. *)
let compile_rec ctx scope bs =
  let slots = List.map (fun _ -> fresh ctx) bs in
  let inner =
    List.fold_left2
      (fun s (x, _, _) slot ->
        Smap.add x (Val { slot; static = true; def = None; group = [] }) s)
      scope bs slots
  in
  let defs =
    List.map2
      (fun (_, params, body) slot ->
        match params with
        | [] -> (slot, code ctx inner body)
        | ps ->
            if not (static_body inner ps body) then ctx.dynamic <- true;
            (slot, Fail "recursive functions are not supported"))
      bs slots
  in
  let static = not ctx.dynamic in
  let rec after =
    lazy
      (List.fold_left2
         (fun s (x, _, body) slot ->
           Smap.add x
             (Val { slot; static; def = Some (body, after); group = defs })
             s)
         scope bs slots)
  in
  (Let_rec defs, Lazy.force after)

type compiled = {
  ops : op array; (* one per statement, in source order *)
  static_stmt : bool array;
  scopes : scope array;
      (* [scopes.(i)]: the names statement [i] sees; the last entry,
         those after every statement *)
  nslots : int;
  reads : int list; (* the witness slots some statement reads *)
}

let compile (model : Ast.t) =
  let ctx = new_ctx (n_witness + List.length structural) in
  let stmts = Array.of_list model.stmts in
  let scopes = Array.make (Array.length stmts + 1) predefined in
  let static_stmt = Array.make (Array.length stmts) false in
  let ops =
    Array.mapi
      (fun i stmt ->
        ctx.dynamic <- false;
        let scope = scopes.(i) in
        let op, after =
          match stmt with
          | Ast.Let (bs, false) -> compile_let ctx scope bs
          | Ast.Let (bs, true) -> compile_rec ctx scope bs
          | Ast.Check (kind, e, _) -> (Check (kind, code ctx scope e), scope)
        in
        static_stmt.(i) <- not ctx.dynamic;
        scopes.(i + 1) <- after;
        op)
      stmts
  in
  {
    ops;
    static_stmt;
    scopes;
    nslots = ctx.next;
    reads = List.filter (fun s -> ctx.reads.(s)) (List.init n_witness Fun.id);
  }

(* ------------------------------------------------------------------ *)
(* Running statements                                                  *)
(* ------------------------------------------------------------------ *)

(* Recursive groups are solved by Kleene iteration from empty relations
   (cat's rec is a least fixed point of monotone equations), every body
   evaluated on the previous round's values.  [?budget] bounds the
   iteration wall-clock: each Kleene step probes the deadline, so a
   pathological model gives up instead of spinning its full 1000-round
   allowance on big relations. *)

let c_fixpoint = Obs.Counter.make "cat.fixpoint_iters"

(* [stage] sees the group's slots at each round before the next is
   evaluated: the empty relations first, the fixpoint last. *)
let kleene ?budget ?(stage = ignore) env defs =
  List.iter (fun (slot, _) -> env.slots.(slot) <- Vrel Rel.empty) defs;
  let rec go n =
    if n > 1000 then raise (Type_error "rec definition did not converge");
    Option.iter Exec.Budget.check_time budget;
    Obs.Counter.incr c_fixpoint;
    stage env;
    let next = List.map (fun (_, c) -> eval env c) defs in
    let converged =
      List.for_all2 (fun (slot, _) v -> equal env.slots.(slot) v) defs next
    in
    List.iter2 (fun (slot, _) v -> env.slots.(slot) <- v) defs next;
    if not converged then go (n + 1)
  in
  go 0

let define ?budget env = function
  | Let defs -> List.iter (fun (slot, c) -> env.slots.(slot) <- eval env c) defs
  | Let_rec defs -> kleene ?budget env defs
  | Check _ -> ()

(* An environment with no slot filled yet.  Compilation orders every
   write of a slot before its reads; a slot read too early would hold
   [Vfun], whose every use raises. *)
let blank c (x : Exec.t) =
  { universe = x.universe; slots = Array.make c.nslots Vfun }

let fill_structural env (x : Exec.t) =
  List.iteri (fun i (_, f) -> env.slots.(n_witness + i) <- f x) structural

let env_of_execution c (x : Exec.t) =
  let env = blank c x in
  fill_structural env x;
  Array.iteri (fun i f -> env.slots.(i) <- Vrel (f x)) witness_rel;
  env

(* Every statement in source order; with a budget, the deadline is
   probed between statements and inside recursive fixpoints. *)
let run ?budget c env =
  Array.map
    (fun op ->
      Option.iter Exec.Budget.tick budget;
      match op with
      | Check (kind, e) -> check env kind e
      | op ->
          define ?budget env op;
          true)
    c.ops

(* ------------------------------------------------------------------ *)
(* Static-prefix evaluation                                            *)
(* ------------------------------------------------------------------ *)

(* Candidate executions of one litmus test share their event structure
   (events, po, addr, data, ctrl, rmw and every predefined set) across
   all rf/co witnesses, and every structure of one static shape shares
   it too; only rf, co and their derivatives change.  A statement
   [compile] classified static — every name it mentions is static where
   it stands — therefore has the same value for every candidate of a
   shape.  [prefix] runs the static statements once per shape, on an
   array with the structural slots filled; that array is the prototype
   every candidate of the shape copies, filling in the witness slots
   the model reads, before [run_with_prefix] replays the dynamic
   remainder.  Results are identical to {!run}. *)

type prefix = {
  compiled : compiled;
  proto : env; (* the slots after the static statements *)
  checks : bool array; (* for a static check at index i: whether it holds *)
}

let prefix ?budget c (x : Exec.t) =
  Obs.with_span "prefix-eval" (fun () ->
      let env = blank c x in
      fill_structural env x;
      let checks = Array.make (Array.length c.ops) false in
      Array.iteri
        (fun i op ->
          if c.static_stmt.(i) then begin
            Option.iter Exec.Budget.tick budget;
            match op with
            | Check (kind, e) -> checks.(i) <- check env kind e
            | op -> define ?budget env op
          end)
        c.ops;
      { compiled = c; proto = env; checks })

(* A copy of the prototype, with the witness slots the model reads. *)
let candidate p (x : Exec.t) =
  let slots = Array.copy p.proto.slots in
  List.iter (fun s -> slots.(s) <- Vrel (witness_rel.(s) x)) p.compiled.reads;
  { p.proto with slots }

(* Replay the statement list: static lets are already in the array,
   static checks come from the prefix, the dynamic remainder is
   evaluated.  Statements are never skipped after a failed check, so a
   model raises its [Type_error] whatever the candidate. *)
let run_with_prefix ?budget { compiled = c; checks; _ } env =
  let holds = ref true in
  Array.iteri
    (fun i op ->
      let static = c.static_stmt.(i) in
      if not static then Option.iter Exec.Budget.tick budget;
      match op with
      | Check (kind, e) ->
          let ok = if static then checks.(i) else check env kind e in
          holds := !holds && ok
      | op -> if not static then define ?budget env op)
    c.ops;
  !holds

(* ------------------------------------------------------------------ *)
(* Program points, for explanations                                    *)
(* ------------------------------------------------------------------ *)

let scope_at c i = c.scopes.(i)

let definition scope x =
  match Smap.find_opt x scope with
  | Some (Val { def = Some (body, s); _ }) -> Some (body, Lazy.force s)
  | _ -> None

(* The stages of a group are copies of [env] that differ in the group's
   slots only, iterated exactly as {!define} iterates; each group's are
   computed on first demand and kept for the closure's life. *)
let stages env =
  let memo = ref [] in
  fun scope x ->
    match Smap.find_opt x scope with
    | Some (Val { group = _ :: _ as defs; _ }) -> (
        match List.assq_opt defs !memo with
        | Some st -> Some st
        | None ->
            let copy e = { e with slots = Array.copy e.slots } in
            let acc = ref [] in
            kleene (copy env) defs ~stage:(fun e -> acc := copy e :: !acc);
            let st = Array.of_list (List.rev !acc) in
            memo := (defs, st) :: !memo;
            Some st)
    | _ -> None

(* Code compiled outside [compile] numbers its parameter slots past the
   model's; the environment grows to hold them. *)
let extend env ctx =
  let len = Array.length env.slots in
  if ctx.next = len then env
  else
    let fresh = Array.make (ctx.next - len) Vfun in
    { env with slots = Array.append env.slots fresh }

let eval_expr env scope e =
  let ctx = new_ctx (Array.length env.slots) in
  let c = code ctx scope e in
  eval (extend env ctx) c

let inline env scope f arg =
  match Smap.find_opt f scope with
  | Some (Fun { params = [ p ]; body; scope = fscope; _ }) ->
      let ctx = new_ctx (Array.length env.slots) in
      let arg_code, arg_fun = compile_expr ctx scope arg in
      let slot = fresh ctx in
      let env = extend env ctx in
      env.slots.(slot) <- eval env arg_code;
      Some (body, Smap.add p (param ~slot arg scope arg_fun) fscope, env)
  | _ -> None
