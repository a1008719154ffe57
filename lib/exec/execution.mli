(** Candidate executions (paper, Section 2): an abstract execution
    (E, po, addr, data, ctrl, rmw) paired with an execution witness
    (rf, co), plus every derived relation the models consume, computed
    once at construction.

    {!candidates} enumerates all candidate executions of a litmus test
    ({!of_test_seq} only those a verdict can depend on):
    per-thread symbolic runs branch over read values, then every
    reads-from assignment (same location, same value) and every per-
    location coherence total order is combined.  Consistency is the
    model's business — enumeration includes incoherent witnesses. *)

module Iset = Rel.Iset

(** The statics of one static shape: po, addr, data, ctrl, rmw, every
    relation and event set derived from them (loc, int, ext, id,
    po-loc, crit, R, W, F, M, IW) and the per-location writes the
    coherence orders range over.  A shape is the events up to their
    values (id, thread, direction, location, annotation) plus the
    dependency and rmw pairs.  {!skeleton} builds each shape once per
    enumeration, on the first of its structures an engine builds, and
    every later structure and candidate of that shape shares it
    physically — so within one enumeration, physical equality of shapes
    is {!static_compatible}.  [exec.shapes] counts the shapes built: a
    shape none of whose structures is built is never counted.  Plain
    data: candidates carrying it marshal and compare structurally. *)
type shape

type t = {
  test : Litmus.Ast.t;
  events : Event.t array;  (** indexed by event id *)
  po : Rel.t;  (** program order (transitive, total per thread) *)
  addr : Rel.t;  (** address dependencies, from reads *)
  data : Rel.t;  (** data dependencies, reads to writes *)
  ctrl : Rel.t;  (** control dependencies, scoped to branch bodies *)
  rmw : Rel.t;  (** read of a read-modify-write to its write *)
  rf : Rel.t;  (** reads-from: exactly one writer per read *)
  co : Rel.t;  (** coherence: total per location, init first *)
  final_regs : (int * string * int) list;  (** (tid, register, value) *)
  universe : Iset.t;
  fr : Rel.t;  (** from-reads: rf^-1 ; co, minus identity *)
  rfi : Rel.t;
  rfe : Rel.t;
  coi : Rel.t;
  coe : Rel.t;
  fri : Rel.t;
  fre : Rel.t;
  com : Rel.t;  (** rf | co | fr *)
  po_loc : Rel.t;
  int_r : Rel.t;  (** same (real) thread; init writes are in no thread *)
  ext_r : Rel.t;  (** distinct pairs not in int *)
  loc_r : Rel.t;  (** same-location memory accesses *)
  id_r : Rel.t;
  reads : Iset.t;
  writes : Iset.t;
  fences : Iset.t;
  mem : Iset.t;  (** reads and writes *)
  init_ws : Iset.t;
  crit : Rel.t;  (** outermost rcu_read_lock -> matching rcu_read_unlock *)
  shape : shape;
      (** the shape every witness-independent field above comes from *)
}

val event : t -> int -> Event.t
val n_events : t -> int

(** [events_where t p] is the set of event ids satisfying [p]. *)
val events_where : t -> (Event.t -> bool) -> Iset.t

(** The candidate read values per location, grown by a fixpoint over
    observed written values (exposed for tests). *)
val initial_domain : Litmus.Ast.t -> int list

val thread_candidate_lists : Litmus.Ast.t -> Sem.candidate list list

(** One event structure before it is built: one Sem run per thread,
    with what the three per-structure decisions read — the final
    registers, each location's non-init writes (event ids and values),
    each read's count of same-value writers and the event count.  The
    condition gate ({!asserted_cond}), deadness ({!dead}) and the
    candidate claim ({!claim}) are decided here; {!skeleton} builds the
    events, the shape and the rf choices, and each engine builds only
    the structures it reads. *)
type structure

(** [structures ?budget test] enumerates the event structures of a test,
    unbuilt, in the order of the product of the threads' runs (first
    thread outermost).  Forcing an element counts it ([exec.structures],
    [exec.events]) and, with a budget, applies the event-count check:
    every element, whatever an engine later does with it. *)
val structures : ?budget:Budget.t -> Litmus.Ast.t -> structure Seq.t

(** [structure_regs st] — the final registers, as (tid, register,
    value), thread by thread. *)
val structure_regs : structure -> (int * string * int) list

(** [structure_writes st x] — the non-init writes of location [x], as
    (event id, value) in id order; [[]] for a location no run writes. *)
val structure_writes : structure -> string -> (int * int) list

(** [dead st] holds iff some read has no same-location, same-value
    writer: the structure has no candidate at all. *)
val dead : structure -> bool

(** [claim st] — the structure's candidate count, the product of its
    reads' writer counts and each location's orders of its non-init
    writes (saturating): what the enumeration claims against the
    candidate cap before it builds the structure's candidates ({!of_test_seq}
    claims only the structures its gate leaves open).  0 for a dead
    structure. *)
val claim : structure -> int

(** One event structure plus its witness choice space: the raw material
    both checking backends consume.  It keeps only what is per
    structure — events with their values, final registers and the rf
    choices — and points at its {!shape} for everything else.  The
    enumerative engine takes the cartesian product of [sk_rf_choices]
    with the linear extensions of {!co_writes}; the symbolic engine
    ({!Solve}) turns the same two into one-hot rf variables and boolean
    order constraints. *)
type skeleton = {
  sk_test : Litmus.Ast.t;
  sk_shape : shape;
  sk_events : Event.t array;
  sk_final_regs : (int * string * int) list;
  sk_rf_choices : (int * int) list list;
      (** per read, in event-id order: its candidate (writer, read)
          edges — same location, same value *)
}

(** [co_writes sk] — per location, in declaration order: the location,
    its initialising write and the non-init writes (event-id order).  A
    property of the shape. *)
val co_writes : skeleton -> (string * int * int list) list

(** [skeleton st] builds a structure.  Each thread's runs are numbered
    by shape once per test; a structure's shape is the tuple of its
    threads' numbers, and its statics are built on the first structure
    of that tuple an enumeration builds and shared by the rest. *)
val skeleton : structure -> skeleton

(** [skeletons ?budget test] is {!structures}, every element built. *)
val skeletons : ?budget:Budget.t -> Litmus.Ast.t -> skeleton Seq.t

(** [instantiate sk ~rf ~co] builds the candidate execution of [sk]
    with the given witness, in which [rf] gives each read exactly one
    writer; its statics are [sk]'s shape, shared with every other
    candidate of that shape. *)
val instantiate : skeleton -> rf:Rel.t -> co:Rel.t -> t

(** [co_of_orders sk orders] assembles a coherence relation from
    per-location total orders (event-id lists in coherence order): the
    initialising write first, then the listed writes. *)
val co_of_orders : skeleton -> (string * int list) list -> Rel.t

(** The condition gate: a test's condition over one event structure,
    in three-valued logic.  The structure fixes every register value
    and much of the final memory (a location with no non-init write
    keeps its initial value, a value no write stores is never final, a
    lone write is co-last); what only the coherence order decides stays
    open as a residue over [Final] atoms. *)
type cond3 =
  | Known of bool  (** statically decided *)
  | Final of int list * int
      (** some write of the list (a location's non-init writes, at
          least two) storing the value is co-maximal *)
  | Not3 of cond3
  | And3 of cond3 * cond3
  | Or3 of cond3 * cond3

(** [asserted_cond st] is the polarity a verdict asks about — the
    condition body for [exists] and [~exists], its negation for
    [forall] — evaluated over [st]'s constants.  [Known false] refutes
    the structure: none of its candidates satisfies the condition under
    the test's quantifier, so none can be a witness, a counterexample
    or anything else a verdict reports.  The one gate of all three
    engines: {!of_test_seq} skips a refuted structure's candidates, and
    [Solve] encodes only the residue of an unrefuted one; neither
    builds a refuted structure. *)
val asserted_cond : structure -> cond3

(** [candidates ?budget test] enumerates every candidate execution as a
    lazily-produced sequence: each candidate is materialised only when
    the consumer reaches it, so checking can interleave with enumeration
    and stop early without building the full list.  With a running
    budget, forcing the sequence raises {!Budget.Exceeded} as soon as
    the event, candidate, or wall-clock limit trips (an arithmetic
    pre-check on the rf/co product size fails explosions before anything
    is materialised).

    Coherence choices are the outer loop and rf choices the inner one;
    each shape's coherence choices (co with its coi and coe) are built
    once per enumeration.  Each candidate's from-reads relation is
    built row by row: rf being
    functional per read, a read's fr row is exactly its writer's co row
    (the same construction {!instantiate} uses). *)
val candidates : ?budget:Budget.t -> Litmus.Ast.t -> t Seq.t

(** [of_test_seq ?budget test] is the verdict stream: {!candidates}
    without the candidates of a structure {!asserted_cond} refutes
    (counted in [exec.cond_refuted]).  The gate runs after a structure
    has been counted ([exec.structures], the event cap), so an event-cap
    trip is where {!candidates} has it.  Only the structures it leaves
    open are claimed against the candidate cap (the rf/co product
    pre-check) and built, so a candidate-cap trip, product-size or
    not, comes only from candidates the stream holds: later than in
    {!candidates}, if at all.
    {!Check.run} and every verdict consume it;
    {!Check.allowed_outcomes} consumes {!candidates}, which builds every
    structure that is not {!dead}. *)
val of_test_seq : ?budget:Budget.t -> Litmus.Ast.t -> t Seq.t

(** [of_test ?budget test] is {!candidates}, fully materialised. *)
val of_test : ?budget:Budget.t -> Litmus.Ast.t -> t list

(** [coherent t] holds iff [po-loc ∪ rf ∪ co ∪ fr] is acyclic —
    sc-per-location.  Every shipped model constrains a superset of this
    relation, so incoherent candidates are inconsistent under all of
    them; {!Check.run} uses this as a cheap prefilter. *)
val coherent : t -> bool

(** [static_compatible a b] — do [a] and [b] have the same statics?
    Holds iff their events agree up to read/written values and their
    input statics (po, addr, data, ctrl, rmw) are equal; the models
    consume nothing else that is witness-independent, values being
    strictly per-candidate (conditions, outcomes).  The test reference
    for "same statics": within one enumeration it holds iff [a.shape ==
    b.shape], the identity the models' static caches key on. *)
val static_compatible : t -> t -> bool

(** [coherent_mask ~mask xs]: bit [c] is set iff bit [c] of [mask] is
    and [xs.(c)] is {!coherent}.  Kept for lkbench's trace replay until
    it reads [lib/obs]; nothing in the library calls it. *)
val coherent_mask : mask:int -> t array -> int

(** [final_mem t x] is the value of [x] after the execution: its
    co-maximal write (or the initial value). *)
val final_mem : t -> string -> int

(** [final_reg regs tid r] is register [r]'s final value in thread
    [tid], from a (tid, register, value) list: 0 when unassigned. *)
val final_reg : (int * string * int) list -> int -> string -> int

(** What a condition reads: a thread's register or a memory location. *)
type observable = [ `Mem of string | `Reg of int * string ]

(** [holds test value] is the two-valued condition evaluator every
    engine shares: does [test]'s condition body hold when each
    observable has the final value [value] gives it?  {!satisfies_cond},
    the simulator's runs and diygen's realisability check decide the
    condition here.  (The quantifier is interpreted by {!Check}; the
    three-valued gate over a whole structure is {!asserted_cond}.) *)
val holds : Litmus.Ast.t -> (observable -> int) -> bool

(** Does the final state satisfy the test's condition body?  (The
    quantifier is interpreted by {!Check}, not here.) *)
val satisfies_cond : t -> bool

(** The observable outcome: values of everything the condition mentions,
    as a canonical assoc list with keys like ["1:r2"] and ["x"].  Two
    executions with equal outcomes are indistinguishable to the test. *)
type outcome = (string * int) list

(** The observables of a test's condition, each once, in first-mention
    order. *)
val observables : Litmus.Ast.t -> observable list

(** An observable's key in an {!outcome}: ["1:r2"] or ["x"]. *)
val observable_name : observable -> string

val outcome : t -> outcome
val pp_outcome : outcome Fmt.t
val pp : t Fmt.t
