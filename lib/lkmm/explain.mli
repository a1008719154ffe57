(** Verdict forensics for the native LK model: structured
    {!Exec.Explain.t} explanations that detect violations natively via
    {!Axioms} and delegate cycle extraction plus provenance
    decomposition to the generic cat engine on the shipped lk.cat (the
    two define the same relations under the same names).  Explanations
    re-validate, and a natively violated axiom lk.cat does not explain
    raises {!Exec.Explain.Invalid}: both are hard errors. *)

(** [explain_execution x] is one validated {!Exec.Explain.t} per
    violated axiom; [[]] iff [x] is consistent.  Raises
    {!Exec.Explain.Invalid} when lk.cat explains fewer axioms than the
    native model finds violated. *)
val explain_execution : Exec.t -> Exec.Explain.t list

(** {!explain_execution}, for {!Exec.Check.model}'s [?explainer]. *)
val explainer : Exec.t -> Exec.Explain.t list

(** The axiom names, matching lk.cat's [as] labels. *)
val check_names : string list

(** [pp_result test ppf r] prints [r], the model's result for [test]
    with {!explainer}: the verdict, plus the explanations of the
    counterexample of a Forbid. *)
val pp_result : Litmus.Ast.t -> Exec.Check.result Fmt.t

(** Check the whole test with {!explainer} and print it as
    {!pp_result} does. *)
val pp_test_verdict : Format.formatter -> Litmus.Ast.t -> unit
