(* Candidate executions and model checking of litmus tests.

   - {!Event}: reads, writes and fences with their annotations (Tables 3–4);
   - {!Sem}: per-thread symbolic semantics;
   - {!Execution} (included here): candidate executions with all base and
     derived relations, and their enumeration via {!of_test};
   - {!Budget}: per-test resource budgets bounding enumeration;
   - {!Check}: running a test against a consistency model;
   - {!Explain}: structured verdict forensics (failing check, minimal
     cycle witness, primitive-edge provenance);
   - {!Solve}: the symbolic SAT backend — the candidate space as CNF;
   - {!Oracle}: a model's engines (enumerative, symbolic) as one
     first-class value, with backend dispatch;
   - {!Dot}: Graphviz export of executions, with explanation overlays. *)

module Event = Event
module Sem = Sem
module Budget = Budget
module Check = Check
module Explain = Explain
module Solve = Solve
module Oracle = Oracle
module Dot = Dot
include Execution
