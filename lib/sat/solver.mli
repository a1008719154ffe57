(** A dependency-free CDCL SAT solver: two-watched-literal propagation,
    first-UIP conflict-driven clause learning, VSIDS-style variable
    activity (branching from an activity-ordered heap, ties to the
    lowest index) with phase saving, and Luby restarts.

    Variables are positive integers allocated with {!new_var}; a literal
    is a non-zero integer whose sign is its polarity (DIMACS
    convention).  Clauses are added up front, then {!solve} is called
    once; the solver is not incremental across calls. *)

type t

type lit = int
(** Non-zero; [v] is variable [v] asserted true, [-v] asserted false. *)

type outcome = Sat | Unsat

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;
}

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable (1-based). *)

val nvars : t -> int

val add_clause : t -> lit list -> unit
(** Add a clause over already-allocated variables.  Tautologies and
    clauses true at level 0 are dropped, duplicate literals merged and
    literals false at level 0 removed; an empty (or all-false) clause
    marks the instance unsatisfiable.  Must be called before {!solve}.
    Raises [Invalid_argument] on a literal that is 0 or names a
    variable not yet allocated. *)

val nclauses : t -> int
(** Clauses handed to {!add_clause} so far, simplified away or not. *)

val solve :
  ?on_conflict:(unit -> unit) ->
  ?on_decision:(unit -> unit) ->
  ?on_learnt:(int -> unit) ->
  ?on_restart:(unit -> unit) ->
  t ->
  outcome
(** Decide the instance.  [on_conflict]/[on_decision] fire once per
    learned conflict and per branching decision; either may raise to
    abort the search (the exception propagates, e.g. a budget trip).
    [on_learnt] fires with each learned clause's length (after
    [on_conflict], while {!decision_level} still reports the conflict
    level); [on_restart] fires at each Luby restart.  All callbacks
    default to no-ops — instrumentation costs nothing when unused. *)

val value : t -> int -> bool
(** [value t v]: polarity of variable [v] in the model.  Only
    meaningful after {!solve} returned [Sat]. *)

val stats : t -> stats

val decision_level : t -> int
(** Current decision level; from inside [on_conflict]/[on_learnt], the
    level the conflict occurred at. *)

val learnt_clauses : t -> lit list list
(** The clauses learned during {!solve}, for soundness testing: each is
    entailed by the original instance. *)
