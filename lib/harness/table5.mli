(** Regenerating Table 5: for each named test, the LK model verdict,
    the observed/total counts on each simulated architecture, and the
    C11 verdict under the mapping of [68]. *)

type row = {
  name : string;
  lk : Exec.Check.verdict;
  lk_expected : Exec.Check.verdict;  (** the paper's Model column *)
  hw : (string * int * int) list;  (** arch, observed, total *)
  c11 : Exec.Check.verdict option;
  c11_expected : Exec.Check.verdict option;
  hw_expected : string list;  (** archs the paper observed the outcome on *)
}

(** [check ?explainer test] is [test]'s LK result (with [explainer]'s
    forensics) and, when C11 applies to it, its C11 result, from one
    {!Exec.Check.run} on the scalar engines. *)
val check :
  ?explainer:(Exec.t -> Exec.Explain.t list) ->
  Litmus.Ast.t ->
  Exec.Check.result * Exec.Check.result option

val row_of_entry : ?runs:int -> ?seed:int -> Battery.entry -> row

(** One row per Table 5 battery entry. *)
val rows : ?runs:int -> ?seed:int -> unit -> row list

val pp : row list Fmt.t

(** Shape checks against the paper's Table 5, usable by tests: verdict
    agreement, no model-forbidden outcome observed on any simulated
    architecture, and (with [check_observed], the default) every
    paper-observed outcome seen by the simulator too. *)

type shape_issue = string

val shape_issues : ?check_observed:bool -> row list -> shape_issue list
