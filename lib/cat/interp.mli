(** Interpreter for the cat subset, in slot form.

    {!compile} resolves every name of a model once: the 37 predefined
    names get fixed slots of an array environment, every [let] binding
    a slot of its own (so shadowing is settled at compile time), and a
    function's body is inlined at each call site, in the scope of its
    definition, with its parameter bound to a slot holding the argument.
    Evaluation reads [env.slots.(i)].  Values are sets of events or
    relations; sets appearing in relation position are coerced to
    identities, as with the bracket form [[S]].  Recursive definitions
    are solved by Kleene iteration from the empty relation (cat's [rec]
    is a least fixed point of monotone equations).  One candidate is
    evaluated at a time. *)

module Iset = Rel.Iset

type value =
  | Vset of Iset.t
  | Vrel of Rel.t
  | Vfun
      (** a function named where a value is expected: any use of it as a
          relation or a set raises *)

(** The slot array of a compiled model, over one candidate's events. *)
type env

(** Raised on unbound identifiers, arity mismatches, or set/relation
    confusion ([empty W * po], a function used as a relation, ...).  A
    model with such a fault still compiles; the error is raised when the
    faulty expression is evaluated. *)
exception Type_error of string

(** The relation of a set or relation value: a set is its identity. *)
val as_rel : value -> Rel.t

(** The predefined names that depend on the execution witness. *)
val witness_names : string list

(** A model in slot form, each statement classified static (computable
    from the event structure alone: every name it mentions is static
    where it stands) or dynamic. *)
type compiled

val compile : Ast.t -> compiled

(** The environment of one candidate with every predefined name filled
    in: the event sets ([_], [W], [R], [M], [F], [IW], and one per
    annotation), the base relations ([po], [addr], [data], [ctrl],
    [rmw], [rf], [co]), the usual derived ones ([fr], [rfi]/[rfe],
    [coi]/[coe], [fri]/[fre], [com], [po-loc], [loc], [int], [ext],
    [id]) and the RCU [crit] matching. *)
val env_of_execution : compiled -> Exec.t -> env

(** [run ?budget compiled env] executes every statement in source order
    on [env], filling its slots; element [i] of the result is whether
    statement [i] holds ([true] for a [let]).  With a budget, the
    deadline is probed between statements and on every Kleene
    iteration of recursive definitions, raising {!Exec.Budget.Exceeded}
    when it passes. *)
val run : ?budget:Exec.Budget.t -> compiled -> env -> bool array

(** {1 Static-prefix evaluation}

    Candidate executions of one static shape share their event
    structure across all rf/co witnesses, so a static statement has the
    same value for all of them.  {!prefix} runs the static statements
    once per shape; the array it leaves is the prototype that
    {!candidate} copies, filling in the witness slots the model reads,
    and {!run_with_prefix} replays the dynamic remainder — deciding
    exactly what {!run} decides. *)

type prefix

(** [prefix ?budget compiled x] evaluates the static statements in
    source order on [x]'s event structure (skipping dynamic ones, which
    by construction no static statement depends on). *)
val prefix : ?budget:Exec.Budget.t -> compiled -> Exec.t -> prefix

(** The environment of one candidate of the prefix's shape. *)
val candidate : prefix -> Exec.t -> env

(** [run_with_prefix ?budget p env] replays all statements in source
    order against [env] (from {!candidate} of [p]), reusing static
    check outcomes from [p] instead of re-evaluating them: whether
    every check of {!run} holds.  No statement is skipped after a
    failed check, so a faulty model raises whatever the candidate. *)
val run_with_prefix : ?budget:Exec.Budget.t -> prefix -> env -> bool

(** {1 Program points}

    After {!run}, each slot holds the one value its program point
    wrote, so the environment answers for every program point; a scope
    says which slot a name denotes at one of them. *)

type scope

(** [scope_at compiled i] is the scope statement [i] is compiled in;
    with [i] the number of statements, the scope after the last. *)
val scope_at : compiled -> int -> scope

(** [definition scope x] is the expression the value named [x] was
    computed from and the scope it was compiled in (for a [let rec],
    the scope after the group) — [None] for predefined names,
    functions and unbound names. *)
val definition : scope -> string -> (Ast.expr * scope) option

(** [stages env scope x] is [None] unless a [let rec] group binds [x]
    in [scope]; then it is the group's Kleene stages on [env], from the
    empty relations up to the fixpoint: each an environment that
    differs from [env] in the group's slots only.  A pair of the group
    that first appears at stage [k] is in its body evaluated on stage
    [k - 1], where every recursive reference lands on a pair of a lower
    stage.  Apply [stages env] once: it computes each group's stages on
    first demand and keeps them. *)
val stages : env -> scope -> string -> env array option

(** [eval_expr env scope e] compiles [e] in [scope] and evaluates it on
    [env]; parameters of inlined applications get slots past [env]'s,
    on a copy. *)
val eval_expr : env -> scope -> Ast.expr -> value

(** [inline env scope f arg] is [f(arg)] with [f]'s body exposed: the
    body, its definition scope with the parameter bound to [arg] (whose
    own definition is [arg] in [scope]), and an environment holding the
    argument's value — [None] unless [f] is a one-parameter function.
    Raises {!Type_error} when [arg] does. *)
val inline :
  env -> scope -> string -> Ast.expr -> (Ast.expr * scope * env) option
