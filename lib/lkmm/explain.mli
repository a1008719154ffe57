(** Verdict forensics for the native LK model.

    Two layers: the original human-readable axiom/cycle printers (used
    by [herd_lk -v]), and structured {!Exec.Explain.t} explanations
    that detect violations natively via {!Axioms} and delegate cycle
    extraction plus provenance decomposition to the generic cat engine
    on the shipped lk.cat (the two define the same relations under the
    same names).  Explanations re-validate, and a natively violated
    axiom lk.cat does not explain raises {!Exec.Explain.Invalid}: both
    are hard errors. *)

type violation = {
  axiom : Axioms.name;
  cycle : int list;  (** event ids; first = last for cycles *)
}

(** Axioms the execution violates, each with a witness cycle (or an
    offending pair for atomicity). *)
val violations_of : Relations.ctx -> violation list

val pp_violation : Exec.t -> Format.formatter -> violation -> unit

(** "consistent", or the violated axioms with their cycles. *)
val pp_execution_verdict : Format.formatter -> Exec.t -> unit

(** Check the whole test and explain a Forbid verdict. *)
val pp_test_verdict : Format.formatter -> Litmus.Ast.t -> unit

(** [explain_execution x] is one validated {!Exec.Explain.t} per
    violated axiom; [[]] iff [x] is consistent.  Raises
    {!Exec.Explain.Invalid} when lk.cat explains fewer axioms than the
    native model finds violated. *)
val explain_execution : Exec.t -> Exec.Explain.t list

(** {!explain_execution}, for {!Exec.Check.run}'s [?explainer]. *)
val explainer : Exec.t -> Exec.Explain.t list

(** The axiom names, matching lk.cat's [as] labels. *)
val check_names : string list
