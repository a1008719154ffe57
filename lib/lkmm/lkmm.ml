(* The Linux-kernel memory model — the paper's primary contribution.

   - {!Relations}: the relations of Figure 8 and Figure 12 (ppo, prop, hb,
     pb, gp, rscs, rcu-path, ...), written once and evaluated per
     candidate and as CNF;
   - {!Axioms}: the constraints of Figure 3 plus the RCU axiom;
   - {!Rcu}: the fundamental law of RCU (Section 4.1) and the Theorem-1
     equivalence check;
   - {!Explain}: human-readable verdicts with witness cycles;
   - [name]/[consistent]: the model packaged for {!Exec.Check.run}. *)

module Relations = Relations
module Axioms = Axioms
module Rcu = Rcu
module Explain = Explain

let name = Model.name
let consistent = Model.consistent

(** The symbolic engine: the candidate space as CNF under
    {!Relations.sat_axioms}, decided by [lib/sat]'s CDCL core, witnesses
    re-validated through the scalar {!Model}. *)
let solve : Exec.Solve.solve_fn =
  Exec.Solve.make ~axioms:Relations.sat_axioms (module Model)

(** The LK model as a checking oracle: both engines (enumerative and
    symbolic), selected per request by {!Exec.Oracle.run}. *)
let oracle : Exec.Oracle.t =
  Exec.Oracle.make ~name:Model.name
    ~model:(fun _ -> (module Model : Exec.Check.MODEL))
    ~solve ()

(** [check ?budget test] runs a litmus test against the LK model on the
    default engine ({!Exec.Oracle.default_backend}); with a budget the
    result may be [Unknown] instead of raising/hanging. *)
let check ?budget test = Exec.Oracle.run ?budget oracle test

(** [verdict ?budget test] is the LK verdict for [test]. *)
let verdict ?budget test = (check ?budget test).Exec.Check.verdict
