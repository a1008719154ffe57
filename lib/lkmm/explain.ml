(* Verdict forensics for the native LK model (Exec.Explain.t). *)

(* The native model and lk.cat define the same relations under the same
   names (the differential suite holds them together), so the native
   explainer detects violations cheaply via {!Axioms} and delegates the
   cycle extraction and provenance decomposition to the generic cat
   engine on the shipped lk.cat — native verdicts get cat-level
   explanations for free.  A natively violated axiom that lk.cat does
   not explain means the two models diverged: that raises
   [Exec.Explain.Invalid], a hard error, like an explanation that fails
   its own re-validation. *)

module E = Exec.Explain

let cat_explainer = lazy (Cat.Explain.explainer (Lazy.force Cat.lk))

(* [explain_execution x] is the native model's verdict forensics: one
   validated explanation per violated axiom, [] iff [x] is consistent. *)
let explain_execution (x : Exec.t) : E.t list =
  match Axioms.violations (Relations.make_cached x) with
  | [] -> []
  | native -> (
      let es = Lazy.force cat_explainer x in
      let named = List.map (fun (e : E.t) -> e.E.check) es in
      match
        List.filter (fun a -> not (List.mem (Axioms.to_string a) named)) native
      with
      | [] -> es
      | missing ->
          raise
            (E.Invalid
               ("lk.cat explains no violation of "
               ^ String.concat ", " (List.map Axioms.to_string missing))))

(* An explainer for {!Exec.Check.model}'s [?explainer]. *)
let explainer : Exec.t -> E.t list = explain_execution

(* The axiom names, matching lk.cat's [as] labels (for --explain-diff). *)
let check_names = List.map Axioms.to_string Axioms.all

(* Explain a whole test from its result under the model with
   [explainer]: the verdict plus, for a Forbid, why the counterexample
   the check retained is rejected. *)
let pp_result (test : Litmus.Ast.t) ppf (r : Exec.Check.result) =
  Fmt.pf ppf "@[<v>%s: %a (%d candidate executions, %d consistent)"
    test.name Exec.Check.pp_verdict r.verdict r.n_candidates r.n_consistent;
  (match (r.verdict, r.counterexample) with
  | Exec.Check.Forbid, None ->
      Fmt.pf ppf "@,no candidate execution matches the condition"
  | _ -> List.iter (Fmt.pf ppf "@,%a" E.pp) r.explanations);
  Fmt.pf ppf "@]"

let pp_test_verdict ppf test =
  pp_result test ppf
    (List.hd
       (Exec.Check.run [ Exec.Check.model ~explainer (module Model) ] test))
