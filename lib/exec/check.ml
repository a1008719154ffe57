(* Running a litmus test against a consistency model.

   A model decides which candidate executions are consistent; a test is
   *allowed* iff some consistent execution satisfies its (existential)
   condition — herd's Ok/No verdicts.

   A third verdict, [Unknown], carries the robustness layer: when a
   per-test budget trips mid-enumeration, or the model itself fails on a
   candidate, the partial result is reported instead of a hang or an
   escaped exception. *)

module type MODEL = sig
  val name : string

  (* [consistent x] holds iff the candidate execution [x] satisfies every
     constraint of the model. *)
  val consistent : Execution.t -> bool
end

(* The type of [Oracle.t]'s [batch] field, kept with it for lkbench's
   trace replay until that replay reads lib/obs: no engine has one. *)
type batch_fn = coherent:bool -> mask:int -> Execution.t array -> int

type unknown_reason =
  | Budget_exceeded of Budget.reason
  | Model_error of exn (* the model raised on some candidate *)
  | Crashed of int
      (* the isolated worker checking this test died on this signal
         (segfault, OOM kill, ...) — only process isolation (Harness.Pool)
         can produce it; in-process checking reports Model_error instead *)

type verdict = Allow | Forbid | Unknown of unknown_reason

(* Which checking engine produced a result: the enumerator or the
   symbolic SAT backend.  Recorded in every result (and report entry)
   so runs are attributable. *)
type backend = Enum | Sat

let backend_to_string = function Enum -> "enum" | Sat -> "sat"

(* Solver-side counters, present on results that went through (or were
   asked to go through) the SAT backend.  [fallback] marks a result
   that was requested as [Sat] but ran on an enumerative engine because
   the oracle ships no solver. *)
type sat_stats = { conflicts : int; decisions : int; fallback : bool }

let signal_name s =
  if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" s

let unknown_reason_to_string = function
  | Budget_exceeded r -> Budget.reason_to_string r
  | Model_error exn -> "model error: " ^ Printexc.to_string exn
  | Crashed s -> "worker crashed: " ^ signal_name s

let verdict_to_string = function
  | Allow -> "Allow"
  | Forbid -> "Forbid"
  | Unknown r -> Printf.sprintf "Unknown (%s)" (unknown_reason_to_string r)

let pp_verdict ppf v = Fmt.string ppf (verdict_to_string v)

type result = {
  verdict : verdict;
  n_candidates : int; (* candidate executions enumerated *)
  n_prefiltered : int; (* rejected by the coherence prefilter, before the
                          model ran (counted within n_candidates) *)
  n_consistent : int; (* consistent under the model *)
  n_matching : int; (* consistent and satisfying the condition *)
  witness : Execution.t option; (* a consistent execution matching the condition *)
  outcomes : (Execution.outcome * bool) list;
      (* observable outcomes of consistent executions; the flag tells
         whether the outcome satisfies the condition *)
  counterexample : Execution.t option;
      (* under [?explainer] and a Forbid verdict: the candidate the
         explanations talk about — a condition-satisfying candidate the
         model rejected *)
  explanations : Explain.t list;
      (* under [?explainer] and a Forbid verdict: one explanation per
         failing check of [counterexample] *)
  backend : backend; (* the engine that produced this result *)
  sat : sat_stats option; (* solver counters, SAT backend only *)
}

(* An empty result with an [Unknown] verdict: a budget trip or an engine
   failure, with the budget's candidate count of that moment. *)
let unknown ?budget ?(backend = Enum) ?sat reason =
  {
    verdict = Unknown reason;
    n_candidates =
      (match budget with Some b -> Budget.candidates_seen b | None -> 0);
    n_prefiltered = 0;
    n_consistent = 0;
    n_matching = 0;
    witness = None;
    outcomes = [];
    counterexample = None;
    explanations = [];
    backend;
    sat;
  }

(* One model of a check: its engine, and optionally an explainer for
   verdict forensics. *)
type model = {
  scalar : (module MODEL);
  explainer : (Execution.t -> Explain.t list) option;
}

let model ?explainer scalar = { scalar; explainer }

(* Interpret the test's quantifier over the consistent executions:
   - exists c  : Allow iff some consistent execution satisfies c;
   - ~exists c : Allow iff some consistent execution satisfies c
                 (the quantifier expresses the author's expectation, not a
                 different question — herd reports Ok/No either way);
   - forall c  : Allow iff some consistent execution *violates* c.
   In all cases the verdict answers: "is the distinguishing outcome
   observable?".

   Candidates are consumed as the enumeration streams them, one at a
   time: nothing is retained but the counters, the outcome sets and the
   first witnesses, and candidates failing the sc-per-location prefilter
   (see {!Execution.coherent}) never reach a model at all.

   One pass serves every model of the call.  The enumeration, the
   prefilter and, per candidate, the condition test and the outcome key
   do not depend on the model, so they run once; each model decides the
   live candidates through its own engine and keeps its own tallies, so
   its result is the one it gets alone. *)

let c_candidates = Obs.Counter.make "check.candidates"
let c_prefiltered = Obs.Counter.make "check.prefilter.hits"
let c_consistent = Obs.Counter.make "check.consistent"
let c_matching = Obs.Counter.make "check.matching"
let h_prefilter = Obs.Histogram.make "check.prefilter_us"
let h_model = Obs.Histogram.make "check.model_us"

(* A model's side of the pass. *)
type tally = {
  m : model;
  consistent : Execution.t -> bool;
  explains : bool; (* [m] has an explainer: retain a counterexample *)
  mutable n_consistent : int;
  mutable n_matching : int;
  mutable witness : Execution.t option;
  mutable outcomes : (Execution.outcome * bool) list;
  mutable cex : Execution.t option;
  mutable settled : result option; (* the model raised: its Unknown *)
}

(* Every model of the call has raised: the enumeration stops. *)
exception All_settled

(* The loop over the candidates [enumerate ()] streams: the verdict
   stream for {!run}, every candidate for {!allowed_outcomes}. *)
let run_over ?budget ~enumerate models (test : Litmus.Ast.t) =
  if models = [] then invalid_arg "Check.run: no model";
  let satisfies x =
    match test.quant with
    | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> Execution.satisfies_cond x
    | Litmus.Ast.Q_forall -> not (Execution.satisfies_cond x)
  in
  let tallies =
    Array.of_list
      (List.map
         (fun m ->
           let (module M : MODEL) = m.scalar in
           {
             m;
             consistent = M.consistent;
             explains = Option.is_some m.explainer;
             n_consistent = 0;
             n_matching = 0;
             witness = None;
             outcomes = [];
             cex = None;
             settled = None;
           })
         models)
  in
  let n_models = Array.length tallies in
  let unsettled = ref n_models in
  let n_candidates = ref 0 and n_prefiltered = ref 0 in
  (* Counterexample retention for forensics, only for a model with an
     explainer (one option test per rejected candidate otherwise — the
     explanation-off discipline).  The preferred counterexample is a
     condition-satisfying candidate the *model* rejected, whose failing
     checks name the interesting axioms; when every condition-satisfying
     candidate dies in the prefilter, the first of those stands in (its
     failure is sc-per-location, and the model's coherence check
     explains it).  That one does not depend on the model. *)
  let track_cex = Array.exists (fun t -> t.explains) tallies in
  let cex_prefiltered = ref None in
  (* When tracing, the prefilter and each model's run are timed per
     candidate. *)
  let tracing = Obs.enabled () in
  (* The condition test and the outcome key of the current candidate,
     each computed when a model first needs it (the key is kept only
     when another model may need it too); [fresh] moves to the next
     candidate. *)
  let candidate = ref 0 and sat_memo = ref (-1) in
  let key_of = ref (-1) and key_memo = ref [] in
  let fresh () =
    incr candidate;
    sat_memo := -1
  in
  let sat x =
    if !sat_memo < 0 then sat_memo := Bool.to_int (satisfies x);
    !sat_memo = 1
  in
  let key x =
    if n_models = 1 then Execution.outcome x
    else if !key_of = !candidate then !key_memo
    else begin
      key_memo := Execution.outcome x;
      key_of := !candidate;
      !key_memo
    end
  in
  (* A model that raises settles alone, as [Unknown (Model_error _)] at
     the budget's count of that moment; the others go on.  A budget trip
     is the whole call's, and without a budget the exception
     propagates. *)
  let fail t exn =
    match (budget, exn) with
    | None, _ | Some _, Budget.Exceeded _ ->
        Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ())
    | Some b, _ ->
        t.settled <- Some (unknown ~budget:b (Model_error exn));
        decr unsettled;
        if !unsettled = 0 then raise All_settled
  in
  let prefiltered x =
    incr n_prefiltered;
    Obs.Counter.incr c_prefiltered;
    if track_cex && Option.is_none !cex_prefiltered && sat x then
      cex_prefiltered := Some x
  in
  let decided t x ok =
    if ok then begin
      t.n_consistent <- t.n_consistent + 1;
      Obs.Counter.incr c_consistent;
      let s = sat x in
      t.outcomes <- (key x, s) :: t.outcomes;
      if s then begin
        t.n_matching <- t.n_matching + 1;
        Obs.Counter.incr c_matching;
        if Option.is_none t.witness then t.witness <- Some x
      end
    end
    else if t.explains && Option.is_none t.cex && sat x then t.cex <- Some x
  in
  (* counted as consumed, so the tally is correct however the stream
     ends (completion, budget trip, every model failing) *)
  let consume () =
    incr n_candidates;
    Obs.Counter.incr c_candidates;
    Option.iter Budget.tick budget
  in
  let visit x =
    consume ();
    fresh ();
    let t0 = if tracing then Obs.now_us () else 0. in
    let keep = Execution.coherent x in
    if tracing then Obs.Histogram.observe h_prefilter (Obs.now_us () -. t0);
    if not keep then prefiltered x
    else
      for i = 0 to n_models - 1 do
        let t = tallies.(i) in
        if Option.is_none t.settled then begin
          let t1 = if tracing then Obs.now_us () else 0. in
          match t.consistent x with
          | ok ->
              if tracing then
                Obs.Histogram.observe h_model (Obs.now_us () -. t1);
              decided t x ok
          | exception e -> fail t e
        end
      done
  in
  (* With a budget, a trip or an enumeration failure settles every model
     not yet settled; the models' explainers do not run. *)
  let stopped =
    match
      Obs.with_span ~item:test.name "check" (fun () ->
          Obs.with_span ~item:test.name "enumerate" (fun () ->
              Seq.iter visit (enumerate ())))
    with
    | () | (exception All_settled) -> None
    | exception Budget.Exceeded r when Option.is_some budget ->
        Some (Budget_exceeded r)
    | exception e when Option.is_some budget -> Some (Model_error e)
  in
  (* Forensics run after enumeration, on the retained counterexample
     only.  The explainer re-derives the model's checks on it; any
     [Explain.Invalid] it raises (an explanation that fails its own
     re-validation) propagates as a hard error — under a budget that
     means an Unknown (Model_error) verdict and the runner's internal-
     error exit code, never a silently wrong explanation. *)
  let forensics t =
    match t.m.explainer with
    | Some explain when t.n_matching = 0 -> (
        match if Option.is_some t.cex then t.cex else !cex_prefiltered with
        | Some x ->
            let es = explain x in
            List.iter
              (fun (e : Explain.t) ->
                Obs.Counter.incr
                  (Obs.Counter.make ("explain.check_fail." ^ e.Explain.check)))
              es;
            (Some x, es)
        | None -> (None, []))
    | _ -> (None, [])
  in
  let finish t (counterexample, explanations) =
    {
      verdict = (if t.n_matching > 0 then Allow else Forbid);
      n_candidates = !n_candidates;
      n_prefiltered = !n_prefiltered;
      n_consistent = t.n_consistent;
      n_matching = t.n_matching;
      witness = t.witness;
      outcomes = List.sort_uniq compare t.outcomes;
      counterexample;
      explanations;
      backend = Enum;
      sat = None;
    }
  in
  let result t =
    match (t.settled, stopped, budget) with
    | Some r, _, _ -> r
    | None, Some reason, _ -> unknown ?budget reason
    | None, None, None -> finish t (forensics t)
    | None, None, Some b -> (
        match forensics t with
        | f -> finish t f
        | exception Budget.Exceeded r -> unknown ~budget:b (Budget_exceeded r)
        | exception e -> unknown ~budget:b (Model_error e))
  in
  List.map result (Array.to_list tallies)

(* A verdict reads only candidates the condition gate leaves open: a
   refuted structure's candidates can be neither witness nor
   counterexample. *)
let run ?budget models test =
  run_over ?budget models test ~enumerate:(fun () ->
      Execution.of_test_seq ?budget test)

(* The set of observable outcomes under the model, ignoring the
   condition (used to compare models with operational simulators): the
   outcome projection of the same loop over every candidate, raising
   what settled it. *)
let allowed_outcomes ?budget m (test : Litmus.Ast.t) =
  match
    run_over ?budget [ model m ] test ~enumerate:(fun () ->
        Execution.candidates ?budget test)
  with
  | [ { verdict = Unknown (Budget_exceeded r); _ } ] ->
      raise (Budget.Exceeded r)
  | [ { verdict = Unknown (Model_error e); _ } ] -> raise e
  | rs ->
      List.concat_map (fun (r : result) -> List.map fst r.outcomes) rs
      |> List.sort_uniq compare
