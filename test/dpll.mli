(** A transparently-correct DPLL reference: unit propagation plus
    chronological backtracking on the first unassigned variable.  Used
    only by the differential test suite as ground truth for the CDCL
    core — exponential, never called on real encodings. *)

val solve : nvars:int -> Sat.Solver.lit list list -> bool array option
(** [solve ~nvars clauses] returns an assignment (indexed by variable,
    1-based) satisfying every clause, or [None] if unsatisfiable. *)

val check : bool array -> Sat.Solver.lit list list -> bool
(** Does the assignment satisfy every clause? *)
