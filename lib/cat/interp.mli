(** Interpreter for the cat subset: evaluates a model's statements against
    the base relations of candidate executions, herd-style.

    Values are sets of events, relations, or (unapplied) functions; sets
    appearing in relation position are coerced to identities, as with the
    bracket form [[S]].  Recursive definitions are solved by Kleene
    iteration from the empty relation (cat's [rec] is a least fixed point
    of monotone equations).

    One evaluator decides one candidate or up to 63 pairwise
    static-compatible ones ({!Exec.Execution.static_compatible}) at once.
    An environment carries the candidates' shared event count and the
    mask of those still live; a relation that varies across them is a
    value of candidate-major bit planes ({!Rel.Batch}).  Each operator
    applies the [Rel] operation when no operand is a plane, and the
    [Rel.Batch] one otherwise, with scalar operands broadcast into the
    live planes.  A single candidate ({!env_of_execution}) is the batch
    of one and never builds a plane.  The code being one, a model raises
    the same {!Type_error} at the same statement on both. *)

module Iset = Rel.Iset

type value =
  | Vset of Iset.t
  | Vrel of Rel.t
  | Vplanes of Rel.Batch.t  (** relation-valued, one plane per candidate *)
  | Vfun of string list * Ast.expr * (string * value) list
      (** parameters, body and the bindings of its definition; the body
          runs on the caller's candidates *)

and env = {
  universe : Iset.t;
  n : int;  (** events per candidate: the shared universe size *)
  mask : int;  (** live candidates: where broadcasts land, checks decide *)
  bindings : (string * value) list;
}

(** Raised on unbound identifiers, arity mismatches, or set/relation
    confusion ([empty W * po], a function used as a relation, ...). *)
exception Type_error of string

val lookup : env -> string -> value
val bind : env -> string -> value -> env

(** The relation of a set or relation value.  Raises [Invalid_argument]
    on planes, which only a batch of candidates holds. *)
val as_rel : value -> Rel.t

val as_set : value -> Iset.t
val eval : env -> Ast.expr -> value

(** [eval_let ?budget env bindings is_rec] evaluates one [let] group
    (Kleene iteration when [is_rec]) and returns the extended
    environment.  Exposed for {!Explain}, which replays a model's
    statements to record where each name was defined. *)
val eval_let :
  ?budget:Exec.Budget.t ->
  env -> (string * string list * Ast.expr) list -> bool -> env

(** [check env kind e] is the mask of [env]'s live candidates on which
    the check [kind e] holds ([env.mask] or [0] for one candidate). *)
val check : env -> Ast.check_kind -> Ast.expr -> int

type outcome = {
  check_name : string;  (** the [as name] label, or ["(unnamed)"] *)
  kind : Ast.check_kind;
  holds : bool;
}

(** [run ?budget model env] executes all statements on one candidate;
    returns every constraint's outcome in source order.  With a budget,
    the deadline is probed between statements and on every Kleene
    iteration of recursive definitions, raising {!Exec.Budget.Exceeded}
    when it passes. *)
val run : ?budget:Exec.Budget.t -> Ast.t -> env -> outcome list

(** {1 Static-prefix evaluation}

    Candidate executions of one litmus test share their event structure
    across all rf/co witnesses; a binding whose free identifiers never
    reach a witness-dependent name has the same value for every
    candidate and can be evaluated once per test instead of once per
    candidate.  [compile] performs that dependency analysis once per
    model, [prefix] evaluates the static statements against one
    candidate, and [run_with_prefix] replays the statement list reusing
    the prefix — deciding exactly what {!run} decides. *)

(** The predefined names that depend on the execution witness. *)
val witness_names : string list

(** The predefined names determined by the event structure alone. *)
val structural_names : string list

(** A model with each statement classified static (computable from the
    event structure alone) or dynamic. *)
type compiled

val compile : Ast.t -> compiled

(** The values of a [compiled] model's static statements, for one event
    structure. *)
type prefix

(** [prefix ?budget compiled env] evaluates the static statements in
    source order (skipping dynamic ones, which by construction no static
    statement depends on). *)
val prefix : ?budget:Exec.Budget.t -> compiled -> env -> prefix

(** [run_with_prefix ?budget p env] replays all statements in source
    order against [env], binding static definitions and reusing static
    check outcomes from [p] instead of re-evaluating them.  [env] must
    come from candidates sharing the event structure [p] was built from.
    Returns the live candidates satisfying every check: candidate [c]'s
    bit is set iff every outcome of [run compiled.model] on it holds.
    The live mask shrinks after each failed check, so decided candidates
    stop costing work, but no statement is skipped.  Each check but the
    model's last adds the candidates it decides to the
    [cat.batch.early_exit] counter. *)
val run_with_prefix : ?budget:Exec.Budget.t -> prefix -> env -> int

(** The predefined cat environment of an execution: the event sets ([_],
    [W], [R], [M], [F], [IW], and one per annotation), the base relations
    ([po], [addr], [data], [ctrl], [rmw], [rf], [co]), the usual derived
    ones ([fr], [rfi]/[rfe], [coi]/[coe], [fri]/[fre], [com], [po-loc],
    [loc], [int], [ext], [id]) and the RCU [crit] matching.  One live
    candidate. *)
val env_of_execution : Exec.t -> env

(** [env_of_executions ~mask xs] is the environment of the candidates
    [xs] that [mask] selects: structural bindings from [xs.(0)]
    (identical in every candidate by construction), witness relations
    stacked into bit planes. *)
val env_of_executions : mask:int -> Exec.t array -> env
