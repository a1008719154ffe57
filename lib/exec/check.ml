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

(* A batched consistency oracle: all candidates share one shape (so are
   pairwise {!Execution.static_compatible}), and the model may take every
   witness-independent part from [xs.(0)]; bit c of the result must
   equal [consistent xs.(c)], for every c in [mask] (bits outside
   [mask] are ignored).  [~coherent]
   tells the model that every candidate of [mask] already passed the
   sc-per-location prefilter, so a model whose coherence axiom is
   exactly that check may skip re-deciding it. *)
type batch_fn = coherent:bool -> mask:int -> Execution.t array -> int

type unknown_reason =
  | Budget_exceeded of Budget.reason
  | Model_error of exn (* the model raised on some candidate *)
  | Crashed of int
      (* the isolated worker checking this test died on this signal
         (segfault, OOM kill, ...) — only process isolation (Harness.Pool)
         can produce it; in-process checking reports Model_error instead *)

type verdict = Allow | Forbid | Unknown of unknown_reason

(* Which checking engine produced a result: the scalar enumerator, the
   bit-plane batched enumerator, or the symbolic SAT backend.  Recorded
   in every result (and report entry) so runs are attributable. *)
type backend = Enum | Batch | Sat

let backend_to_string = function
  | Enum -> "enum"
  | Batch -> "batch"
  | Sat -> "sat"

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

(* Interpret the test's quantifier over the consistent executions:
   - exists c  : Allow iff some consistent execution satisfies c;
   - ~exists c : Allow iff some consistent execution satisfies c
                 (the quantifier expresses the author's expectation, not a
                 different question — herd reports Ok/No either way);
   - forall c  : Allow iff some consistent execution *violates* c.
   In all cases the verdict answers: "is the distinguishing outcome
   observable?".

   Candidates are consumed as the enumeration streams them, one at a
   time: nothing is retained but the counters, the outcome set and the
   first witness, and candidates failing the sc-per-location prefilter
   (see {!Execution.coherent}) never reach the model at all. *)

let c_candidates = Obs.Counter.make "check.candidates"
let c_prefiltered = Obs.Counter.make "check.prefilter.hits"
let c_consistent = Obs.Counter.make "check.consistent"
let c_matching = Obs.Counter.make "check.matching"
let h_prefilter = Obs.Histogram.make "check.prefilter_us"
let h_model = Obs.Histogram.make "check.model_us"
let c_batch_flushes = Obs.Counter.make "check.batch.flushes"
let h_occupancy = Obs.Histogram.make "check.batch.occupancy"

let run_exn ?budget ?batch ?explainer (module M : MODEL) (test : Litmus.Ast.t)
    =
  let satisfies x =
    match test.quant with
    | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> Execution.satisfies_cond x
    | Litmus.Ast.Q_forall -> not (Execution.satisfies_cond x)
  in
  let n_candidates = ref 0
  and n_prefiltered = ref 0
  and n_consistent = ref 0
  and n_matching = ref 0 in
  let witness = ref None and outcomes = ref [] in
  (* Counterexample retention for forensics, only with an explainer (one
     option test per rejected candidate otherwise — the explanation-off
     discipline).  The preferred counterexample is a condition-satisfying
     candidate the *model* rejected, whose failing checks name the
     interesting axioms; when every condition-satisfying candidate dies
     in the prefilter, the first of those stands in (its failure is
     sc-per-location, and the model's coherence check explains it). *)
  let track_cex = explainer <> None in
  let cex = ref None and cex_prefiltered = ref None in
  (* When tracing, the prefilter test and the model run are each timed
     per candidate (two clock reads each). *)
  let tracing = Obs.enabled () in
  (* Per-candidate tallies, shared verbatim between the scalar loop and
     the batched flush: the flush walks its buffer in enumeration order
     calling exactly these, so counters, outcome order, witness and
     counterexample identity cannot diverge between the two paths. *)
  let prefiltered x =
    incr n_prefiltered;
    Obs.Counter.incr c_prefiltered;
    if track_cex && !cex_prefiltered = None && satisfies x then
      cex_prefiltered := Some x
  in
  let decided x ok =
    if ok then begin
      incr n_consistent;
      Obs.Counter.incr c_consistent;
      let sat = satisfies x in
      outcomes := (Execution.outcome x, sat) :: !outcomes;
      if sat then begin
        incr n_matching;
        Obs.Counter.incr c_matching;
        if !witness = None then witness := Some x
      end
    end
    else if track_cex && !cex = None && satisfies x then cex := Some x
  in
  Obs.with_span ~item:test.name "check" (fun () ->
      Obs.with_span ~item:test.name "enumerate" (fun () ->
          let stream = Execution.of_test_seq ?budget test in
          match batch with
          | None ->
              Seq.iter
                (fun x ->
                  (* counted as consumed, so the tally is correct however
                     the stream ends (completion, budget trip, model
                     failure) *)
                  incr n_candidates;
                  Obs.Counter.incr c_candidates;
                  Option.iter Budget.tick budget;
                  let t0 = if tracing then Obs.now_us () else 0. in
                  let keep = Execution.coherent x in
                  if tracing then
                    Obs.Histogram.observe h_prefilter (Obs.now_us () -. t0);
                  if not keep then prefiltered x
                  else begin
                    let t1 = if tracing then Obs.now_us () else 0. in
                    let ok = M.consistent x in
                    if tracing then
                      Obs.Histogram.observe h_model (Obs.now_us () -. t1);
                    decided x ok
                  end)
                stream
          | Some batch_fn ->
              (* Buffer up to 63 candidates of one shape — all the
                 witnesses of one event structure, and enumeration-
                 adjacent structures of the test that differ only in
                 read values — then decide the prefilter and the model
                 for the whole buffer in word-parallel passes over
                 candidate-major bit planes, and tally in enumeration
                 order.  The buffer is flushed where the shape changes:
                 one physical comparison per candidate, and the same
                 cut {!Execution.static_compatible} makes. *)
              let buf = ref [] and len = ref 0 in
              let flush () =
                if !len > 0 then begin
                  let xs = Array.of_list (List.rev !buf) in
                  buf := [];
                  len := 0;
                  let k = Array.length xs in
                  let full = Rel.Batch.full_mask k in
                  Obs.Counter.incr c_batch_flushes;
                  Obs.Histogram.observe h_occupancy (float_of_int k);
                  let live = Execution.coherent_mask ~mask:full xs in
                  let consistent =
                    if live = 0 then 0 else batch_fn ~coherent:true ~mask:live xs
                  in
                  Array.iteri
                    (fun c x ->
                      let bit = 1 lsl c in
                      if live land bit = 0 then prefiltered x
                      else decided x (consistent land bit <> 0))
                    xs
                end
              in
              Seq.iter
                (fun x ->
                  incr n_candidates;
                  Obs.Counter.incr c_candidates;
                  Option.iter Budget.tick budget;
                  (match !buf with
                  | (y : Execution.t) :: _ when y.shape != x.Execution.shape ->
                      flush ()
                  | _ -> ());
                  buf := x :: !buf;
                  incr len;
                  if !len = Rel.Batch.width then flush ())
                stream;
              flush ()));
  (* Forensics run after enumeration, on the retained counterexample
     only.  The explainer re-derives the model's checks on it; any
     [Explain.Invalid] it raises (an explanation that fails its own
     re-validation) propagates as a hard error — under a budget that
     means an Unknown (Model_error) verdict and the runner's internal-
     error exit code, never a silently wrong explanation. *)
  let counterexample, explanations =
    match explainer with
    | Some explain when !n_matching = 0 -> (
        match (if !cex <> None then !cex else !cex_prefiltered) with
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
  {
    verdict = (if !n_matching > 0 then Allow else Forbid);
    n_candidates = !n_candidates;
    n_prefiltered = !n_prefiltered;
    n_consistent = !n_consistent;
    n_matching = !n_matching;
    witness = !witness;
    outcomes = List.sort_uniq compare !outcomes;
    counterexample;
    explanations;
    backend = (match batch with None -> Enum | Some _ -> Batch);
    sat = None;
  }

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

(* Budgeted checking: budget violations and model failures become
   [Unknown] results carrying the partial candidate count — a check under
   a budget never raises.  Without a budget, behaviour (and exceptions)
   are exactly the pre-budget ones. *)
let run ?budget ?batch ?explainer (module M : MODEL) (test : Litmus.Ast.t) =
  let backend = match batch with None -> Enum | Some _ -> Batch in
  match budget with
  | None -> run_exn ?batch ?explainer (module M) test
  | Some b -> (
      try run_exn ~budget:b ?batch ?explainer (module M) test with
      | Budget.Exceeded r -> unknown ~budget:b ~backend (Budget_exceeded r)
      | Stack_overflow ->
          unknown ~budget:b ~backend (Model_error Stack_overflow)
      | exn -> unknown ~budget:b ~backend (Model_error exn))

(* The set of observable outcomes under the model, ignoring the
   condition (used to compare models with operational simulators): the
   outcome projection of {!run_exn}'s loop.  May raise {!Budget.Exceeded}
   when budgeted. *)
let allowed_outcomes ?budget ?batch (module M : MODEL) (test : Litmus.Ast.t) =
  (run_exn ?budget ?batch (module M) test).outcomes
  |> List.map fst |> List.sort_uniq compare
