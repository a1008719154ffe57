(** Running a litmus test against a consistency model.

    A model is anything deciding per-execution consistency; a test is
    Allowed iff some consistent execution exhibits the distinguishing
    outcome of its condition (herd's Ok/No verdicts).  A third verdict,
    [Unknown], reports a partial result when a per-test {!Budget} trips
    or the model fails on a candidate. *)

module type MODEL = sig
  val name : string

  (** [consistent x] holds iff [x] satisfies every constraint of the
      model. *)
  val consistent : Execution.t -> bool
end

(** The type of {!Oracle.t}'s [batch] field, kept with that field for
    lkbench's trace replay until it reads [lib/obs]: no engine has
    one. *)
type batch_fn = coherent:bool -> mask:int -> Execution.t array -> int

type unknown_reason =
  | Budget_exceeded of Budget.reason
  | Model_error of exn  (** the model raised on some candidate *)
  | Crashed of int
      (** the isolated worker checking the test died on this signal;
          produced only by process isolation ({!Harness.Pool}) *)

type verdict = Allow | Forbid | Unknown of unknown_reason

(** The checking engine that produced a result: the enumerator, which
    decides one candidate at a time and is the reference, or the
    symbolic SAT backend.  Engine selection flows through {!Oracle.t};
    the result (and the report entry built from it) records which
    engine actually ran. *)
type backend = Enum | Sat

val backend_to_string : backend -> string

(** Solver counters, present on results that involved the SAT backend:
    conflicts and decisions accumulated across the per-structure
    solves, and [fallback] marking a result that was requested as [Sat]
    but ran enumeratively because the oracle ships no solver. *)
type sat_stats = { conflicts : int; decisions : int; fallback : bool }

(** Human name for a signal number (SIGSEGV, SIGKILL, ...). *)
val signal_name : int -> string

val unknown_reason_to_string : unknown_reason -> string
val verdict_to_string : verdict -> string
val pp_verdict : verdict Fmt.t

(** A verdict reads the verdict stream, {!Execution.of_test_seq}: every
    candidate but those of the event structures the condition gate
    ({!Execution.asserted_cond}) refutes.  A refuted structure holds no
    candidate satisfying the condition under the test's quantifier, so
    the verdict, [n_matching], the witness, the counterexample and the
    explanations are those of the every-candidate stream
    ({!Execution.candidates}); the counts below and [outcomes] cover the
    visited candidates only (report schema version 5 on). *)
type result = {
  verdict : verdict;
  n_candidates : int;
      (** candidate executions visited: enumerated and not skipped by
          the condition gate *)
  n_prefiltered : int;
      (** rejected by the sc-per-location prefilter before the model ran
          (a subset of [n_candidates]) *)
  n_consistent : int;  (** visited candidates consistent under the model *)
  n_matching : int;  (** consistent and satisfying the condition *)
  witness : Execution.t option;
      (** a consistent execution matching the condition, if any *)
  outcomes : (Execution.outcome * bool) list;
      (** observable outcomes of the visited consistent executions; the
          flag marks outcomes satisfying the condition, and every one of
          those is listed.  For every consistent outcome, ask
          {!allowed_outcomes}.  The SAT engine answers only whether the
          condition is observable, and fills this with its witness's
          outcome alone (empty on Forbid) *)
  counterexample : Execution.t option;
      (** with [?explainer] and a Forbid verdict: the candidate the
          explanations describe — a condition-satisfying candidate the
          model rejected (the one a herd diagram of the violation should
          draw) *)
  explanations : Explain.t list;
      (** with [?explainer] and a Forbid verdict: one validated
          explanation per failing check of [counterexample] *)
  backend : backend;  (** the engine that produced this result *)
  sat : sat_stats option;  (** solver counters, SAT backend only *)
}

(** [unknown reason] is an empty result with an [Unknown] verdict —
    the partial-result constructor used when a budget trips or an
    engine fails; [n_candidates] reports the budget's partial count. *)
val unknown :
  ?budget:Budget.t -> ?backend:backend -> ?sat:sat_stats ->
  unknown_reason -> result

(** One model of a check: its engine, and optionally an explainer for
    verdict forensics. *)
type model = {
  scalar : (module MODEL);
  explainer : (Execution.t -> Explain.t list) option;
}

val model :
  ?explainer:(Execution.t -> Explain.t list) -> (module MODEL) -> model

(** [run models test] checks [test] under every model of the non-empty
    list [models] in one pass over its candidates, and returns one
    result per model, in order.  Each result equals the one its model
    gets alone ([run [m] test]): the enumeration, the prefilter and,
    per candidate, the condition test and the outcome key do not depend
    on the model and are done once; each model decides the live
    candidates through its own engine and keeps its own tallies,
    witness, counterexample and [backend].

    The candidates are those of the verdict stream,
    {!Execution.of_test_seq}: a structure the condition gate refutes is
    skipped whole, since none of its candidates can be a witness or a
    counterexample.  So a model that would raise only on a skipped
    candidate yields a verdict, not [Unknown (Model_error _)], and a
    candidate cap or timeout trips later than over every candidate, if
    at all: a refuted structure is not claimed against the candidate
    cap either ({!Execution.of_test_seq}), so only the candidates the
    stream holds can trip it.  An event cap is unchanged.

    Per model, the candidates are streamed, filtered through the model
    and the quantifier interpreted: for [exists]/[~exists] the verdict
    asks whether some consistent execution satisfies the condition body,
    for [forall] whether some consistent execution violates it.
    Candidates are consumed one at a time as the enumeration produces
    them (nothing retains the full list), and [n_candidates] counts
    them as consumed.

    Candidates failing the sc-per-location check ({!Execution.coherent})
    are rejected — and tallied in [n_prefiltered] — without running a
    model.  This is sound for any model that enforces coherence, which
    every shipped model does.

    With [?budget], the call never raises, and the budget bounds the
    whole call: a candidate or event cap trips at the candidate where a
    one-model call would, and a wall-clock timeout covers every model's
    work, so each model not yet settled gets [Unknown] with the same
    partial [n_candidates].  A model that raises settles alone, as
    [Unknown (Model_error _)] with the budget's count at that moment;
    the other models go on, and the enumeration stops once every model
    has raised.  Without a budget, exceptions propagate as before.

    With an explainer (verdict forensics), a model's first
    condition-satisfying candidate that it rejects is retained —
    preferring one that reached the model over one the prefilter
    killed — and, when its verdict comes out Forbid, handed to the
    explainer; the validated explanations ride in [explanations].  The
    explainer raising {!Explain.Invalid} is a hard error: under a
    budget it surfaces as that model's [Unknown (Model_error _)],
    otherwise it propagates.  Without an explainer the streaming loop
    is unchanged up to one option test per rejected candidate. *)
val run : ?budget:Budget.t -> model list -> Litmus.Ast.t -> result list

(** The observable outcomes allowed by the model, ignoring the
    condition; used to compare models with the operational simulators.
    The outcome projection of {!run}'s loop over every candidate
    ({!Execution.candidates}, not the gated verdict stream), so it
    streams and prefilters alike.  Raises {!Budget.Exceeded} when a
    budget is given and trips, and the model's exception when it fails
    (callers decide how to report partial soundness information). *)
val allowed_outcomes :
  ?budget:Budget.t -> (module MODEL) -> Litmus.Ast.t ->
  Execution.outcome list
