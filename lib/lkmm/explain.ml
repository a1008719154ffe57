(* Human-readable explanations of LKMM verdicts: which axioms an execution
   violates and a witness cycle for each, with events printed in the
   paper's style. *)

type violation = {
  axiom : Axioms.name;
  cycle : int list; (* event ids; first = last *)
}

let violations_of (c : Relations.ctx) =
  List.filter_map
    (fun axiom ->
      if Axioms.holds c axiom then None
      else
        let rel = Axioms.relation c axiom in
        let cycle =
          match axiom with
          | Axioms.At ->
              (* the violated constraint is emptiness, show an offending pair *)
              (match Rel.to_list rel with (a, b) :: _ -> [ a; b ] | [] -> [])
          | _ -> Option.value ~default:[] (Rel.find_cycle rel)
        in
        Some { axiom; cycle })
    Axioms.all

let pp_violation (x : Exec.t) ppf { axiom; cycle } =
  Fmt.pf ppf "violates %s%a" (Axioms.to_string axiom)
    Fmt.(
      list ~sep:nop (fun ppf id ->
          pf ppf "@\n    %a" Exec.Event.pp x.events.(id)))
    cycle

let pp_execution_verdict ppf (x : Exec.t) =
  let c = Relations.make x in
  match violations_of c with
  | [] -> Fmt.pf ppf "consistent"
  | vs ->
      Fmt.pf ppf "@[<v>forbidden:@,%a@]"
        Fmt.(list ~sep:cut (pp_violation x))
        vs

(* ------------------------------------------------------------------ *)
(* Structured forensics (Exec.Explain.t)                               *)
(* ------------------------------------------------------------------ *)

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

(* [explain_execution x] is the native model's verdict forensics: one
   validated explanation per violated axiom, [] iff [x] is consistent. *)
let explain_execution (x : Exec.t) : E.t list =
  match Axioms.violations (Relations.make_cached x) with
  | [] -> []
  | native -> (
      let es = Cat.Explain.explain_execution (Lazy.force Cat.lk) x in
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

(* An explainer for {!Exec.Check.run}'s [?explainer]. *)
let explainer : Exec.t -> E.t list = explain_execution

(* The axiom names, matching lk.cat's [as] labels (for --explain-diff). *)
let check_names = List.map Axioms.to_string Axioms.all

(* Explain a whole test: the verdict plus, for a forbidden test, why the
   candidate executions matching the condition are inconsistent. *)
let pp_test_verdict ppf (test : Litmus.Ast.t) =
  let result = Exec.Check.run (module Model) test in
  Fmt.pf ppf "@[<v>%s: %a (%d candidate executions, %d consistent)@,"
    test.name Exec.Check.pp_verdict result.verdict result.n_candidates
    result.n_consistent;
  (match result.verdict with
  | Exec.Check.Allow -> ()
  | Exec.Check.Unknown r ->
      Fmt.pf ppf "gave up: %s@," (Exec.Check.unknown_reason_to_string r)
  | Exec.Check.Forbid ->
      let matching =
        List.filter Exec.satisfies_cond (Exec.of_test test)
      in
      (match matching with
      | [] -> Fmt.pf ppf "no candidate execution matches the condition@,"
      | x :: _ -> Fmt.pf ppf "%a@," pp_execution_verdict x));
  Fmt.pf ppf "@]"
