(** The symbolic checking backend: a litmus test's candidate space,
    one event structure at a time, rendered as CNF over one-hot rf
    choices and per-location boolean coherence orders, and decided by
    the CDCL core in [lib/sat].  Sc-per-location is asserted as the
    five two-access coherence patterns over each po-loc pair, directly
    over the rf/co literals.

    The whole LK derivation chain is monotone in rf and co, so derived
    relations carry one-sided "support" clauses only, and the
    (all-negative) axioms are decided exactly against those
    over-approximations — no refinement loop.  A SAT answer is decoded
    back to an {!Execution.t} and re-validated through the scalar
    model; re-validation failure is a hard {!Spurious} error, never a
    verdict. *)

(** A symbolic truth value: statically false, statically true, or a
    solver literal. *)
type lit3 = F | T | L of int

(** A solver under construction: the CDCL instance and the event count
    (symbolic relations are [n × n] matrices). *)
type ctx = { s : Sat.Solver.t; n : int }

(** A decoded witness failed scalar re-validation — an encoder or
    solver bug, surfaced as [Model_error] under a budget and propagated
    otherwise. *)
exception Spurious of string

val neg : lit3 -> lit3

(** [clause ctx lits] asserts a disjunction ([T] members discharge it
    statically, [F] members drop out; all-[F] is the empty clause). *)
val clause : ctx -> lit3 list -> unit

val fresh : ctx -> lit3

(** Support-only connectives (sound for the monotone derivation chain):
    the result is forced true by its definition, not equivalent to
    it. *)
val or_support : ctx -> lit3 list -> lit3

val and_support : ctx -> lit3 list -> lit3

(** Two-sided (Tseitin) connectives, for formulas under negation. *)
val or_full : ctx -> lit3 list -> lit3

val and_full : ctx -> lit3 list -> lit3
val assert_lit : ctx -> lit3 -> unit

(** Symbolic relations: [n × n] matrices of {!lit3}, with the cat-style
    combinators the axiom callbacks are written in.  All derived
    operators emit support-only clauses; closures and the acyclicity
    assertion preprocess on the {!Rel} dense-bitset may/must
    projections (implied literals, unreachability pruning, cycle-core
    restriction). *)
module Sym : sig
  type t = lit3 array array

  val make : int -> t
  val entry : t -> int -> int -> lit3
  val const : ctx -> Rel.t -> t

  (** The pairs possibly/necessarily in the relation. *)
  val may_of : t -> Rel.t

  val must_of : t -> Rel.t
  val union : ctx -> t -> t -> t
  val inter : ctx -> t -> t -> t

  (** Intersection/difference with a static relation — no clauses. *)
  val inter_const : t -> Rel.t -> t

  val diff_const : t -> Rel.t -> t
  val seq : ctx -> t -> t -> t
  val inverse : t -> t
  val plus : ctx -> t -> t
  val opt : t -> t
  val star : ctx -> t -> t
  val is_static_empty : t -> bool
  val assert_acyclic : ctx -> t -> unit
  val assert_irreflexive : ctx -> t -> unit
  val assert_empty : ctx -> t -> unit
end

(** What an axioms callback sees: the context, a representative
    execution of the structure (empty witness — its static relations
    and event sets are those of every candidate of the structure) and
    the symbolic witness relations. *)
type enc = {
  ctx : ctx;
  rep : Execution.t;
  rf : Sym.t;
  co : Sym.t;
  fr : Sym.t;
}

(** A model's axioms as clauses: called once per encoded structure,
    after rf/co/fr well-formedness and Scpv are already asserted.
    The native LKMM callback lives in [Lkmm.Symbolic]. *)
type axioms = enc -> unit

(** The type of a ready-to-run symbolic engine, as carried by
    {!Oracle.t}. *)
type solve_fn =
  ?budget:Budget.t ->
  ?explainer:(Execution.t -> Explain.t list) ->
  Litmus.Ast.t ->
  Check.result

(** [run ~axioms (module M) test] decides the test symbolically:
    structures are encoded and solved in enumeration order until one is
    satisfiable (Allow, with a decoded, re-validated witness) or all
    are refuted (Forbid).  [M] is the *scalar* model the decoded
    witness is re-validated against — it must agree with [axioms].

    The condition is evaluated on each structure first, in three-valued
    logic over the values the structure fixes (registers, and memory
    where no coherence choice matters); a structure whose asserted
    condition is statically false is refuted without building any CNF
    ([solve.cond_refuted] counts these, [solve.encoded] the rest), and
    only the undecided residue of the condition is encoded.  Per encoded
    structure the [solve.encode], [solve.search] and [solve.decode]
    spans split the time.

    Budgets map onto solver work: each conflict counts as a candidate
    (so [max_candidates] bounds total conflicts) and each conflict or
    decision probes the wall clock; a tripped budget yields the same
    structured [Unknown (Budget_exceeded _)] as the enumerative path.
    [n_candidates] and the [sat] stats of the result report conflicts
    and decisions.

    With [?explainer] and a Forbid verdict, the forensic pass re-solves
    with the axioms dropped (then with Scpv also dropped) to find the
    candidate the explanations should describe, and runs the scalar
    explainer on it. *)
val run :
  ?budget:Budget.t ->
  axioms:axioms ->
  (module Check.MODEL) ->
  ?explainer:(Execution.t -> Explain.t list) ->
  Litmus.Ast.t ->
  Check.result

(** [make ~axioms (module M)] packages {!run} as a {!solve_fn}. *)
val make : axioms:axioms -> (module Check.MODEL) -> solve_fn
