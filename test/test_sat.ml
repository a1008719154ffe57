(* The symbolic SAT backend, three layers deep:

   - the CDCL core differentially against a transparently-correct DPLL
     reference on random small instances (outcome agreement, model
     validity, learned-clause entailment);
   - the encoder end-to-end against the enumerative engines: verdict
     agreement over the whole golden corpus, through the public
     {!Exec.Oracle.run} entry the harness uses, and over every
     quantifier with conditions the condition gate decides true, false
     or leaves to the solver; the forensic re-solve on every corpus
     Forbid;
   - the re-validation contract: tampered axioms must surface as a
     classified [Spurious] error, never as a verdict; and the two
     budget-breaking tests the enumerative engines give up on must come
     back decided. *)

module S = Sat.Solver

(* ------------------------------------------------------------------ *)
(* CDCL vs the DPLL reference                                          *)
(* ------------------------------------------------------------------ *)

(* A random instance in a regime that mixes sat and unsat: up to 8
   variables, up to 30 clauses of 1-3 literals. *)
let gen_instance =
  QCheck.Gen.(
    int_range 1 8 >>= fun nvars ->
    int_range 1 30 >>= fun nclauses ->
    let gen_lit =
      map2
        (fun v neg -> if neg then -v else v)
        (int_range 1 nvars) bool
    in
    list_size (return nclauses) (list_size (int_range 1 3) gen_lit)
    >|= fun clauses -> (nvars, clauses))

let arb_instance =
  QCheck.make ~print:(fun (n, cs) ->
      Printf.sprintf "nvars=%d clauses=[%s]" n
        (String.concat "; "
           (List.map
              (fun c -> String.concat " " (List.map string_of_int c))
              cs)))
    gen_instance

let cdcl_solve nvars clauses =
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  (s, S.solve s)

let prop_agrees_with_naive (nvars, clauses) =
  let _, outcome = cdcl_solve nvars clauses in
  let naive = Sat.Naive.solve ~nvars clauses in
  match (outcome, naive) with
  | S.Sat, Some _ | S.Unsat, None -> true
  | S.Sat, None | S.Unsat, Some _ -> false

let prop_model_satisfies (nvars, clauses) =
  let s, outcome = cdcl_solve nvars clauses in
  match outcome with
  | S.Unsat -> QCheck.assume_fail ()
  | S.Sat ->
      let model = Array.make (nvars + 1) false in
      for v = 1 to nvars do
        model.(v) <- S.value s v
      done;
      Sat.Naive.check model clauses

(* Every learned clause is entailed by the original instance:
   original /\ ~clause must be unsatisfiable (checked by the
   reference). *)
let prop_learned_entailed (nvars, clauses) =
  let s, _ = cdcl_solve nvars clauses in
  List.for_all
    (fun learnt ->
      let negated = List.map (fun l -> [ -l ]) learnt in
      Sat.Naive.solve ~nvars (clauses @ negated) = None)
    (S.learnt_clauses s)

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      QCheck.Test.make ~count:500 ~name:"cdcl agrees with dpll reference"
        arb_instance prop_agrees_with_naive;
      QCheck.Test.make ~count:500 ~name:"cdcl models satisfy the instance"
        arb_instance prop_model_satisfies;
      QCheck.Test.make ~count:200 ~name:"learned clauses are entailed"
        arb_instance prop_learned_entailed;
    ]

(* ------------------------------------------------------------------ *)
(* Corpus agreement                                                    *)
(* ------------------------------------------------------------------ *)

let corpus_dir =
  (* tests run from _build/default/test *)
  List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ]

let manifest dir =
  Harness.Runner.read_file (Filename.concat dir "MANIFEST")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ file; lk; _c11 ] -> Some (file, lk)
           | _ -> Alcotest.failf "bad manifest line: %s" line)

let sat_check ?(backend = Exec.Check.Sat) t =
  Exec.Oracle.run ~budget:(Exec.Budget.start Exec.Budget.default) ~backend
    Lkmm.oracle t

(* Every corpus test: the symbolic verdict must equal both the golden
   manifest verdict and the batched engine's, with zero fallbacks (the
   native oracle ships a solver) and solver counters present. *)
let test_corpus_agreement () =
  match corpus_dir with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      let entries = manifest dir in
      Alcotest.(check bool) "corpus is substantial" true
        (List.length entries > 200);
      List.iter
        (fun (file, lk) ->
          let t =
            Litmus.parse
              (Harness.Runner.read_file (Filename.concat dir file))
          in
          let r = sat_check t in
          Alcotest.(check string) (file ^ " sat = golden") lk
            (Exec.Check.verdict_to_string r.Exec.Check.verdict);
          (match r.Exec.Check.sat with
          | Some s ->
              Alcotest.(check bool) (file ^ " no fallback") false
                s.Exec.Check.fallback
          | None -> Alcotest.failf "%s: sat result carries no sat stats" file);
          Alcotest.(check string) (file ^ " backend tag") "sat"
            (Exec.Check.backend_to_string r.Exec.Check.backend);
          let b = sat_check ~backend:Exec.Check.Batch t in
          Alcotest.(check string) (file ^ " sat = batch")
            (Exec.Check.verdict_to_string b.Exec.Check.verdict)
            (Exec.Check.verdict_to_string r.Exec.Check.verdict))
        entries

(* ------------------------------------------------------------------ *)
(* The condition gate                                                  *)
(* ------------------------------------------------------------------ *)

(* [f ()] with the collector on; returns its result and the counters it
   left behind. *)
let with_counters f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      let counters = Obs.counters () in
      let count name = Option.value ~default:0 (List.assoc_opt name counters) in
      (r, count))

(* MP with a second writer of x, so a condition on x's final value is
   left to the coherence order.  z is written by no thread and r9 is
   set by no thread. *)
let gate_test quant cond =
  Litmus.parse
    (Printf.sprintf
       "C gate\n\
        { }\n\
        P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }\n\
        P1(int *x, int *y) { int r0 = READ_ONCE(*y); smp_rmb(); int r1 = \
        READ_ONCE(*x); }\n\
        P2(int *x) { WRITE_ONCE(*x, 2); }\n\
        %s (%s)\n"
       quant cond)

(* Each quantifier over a condition the gate decides true on every
   structure, one it decides false on every structure, and ones it
   leaves to the solver: the SAT verdict must equal the batched
   engine's, and the counters must show the gate deciding as claimed. *)
let test_quantifiers () =
  let conds =
    [
      (`True, "z=0 /\\ 1:r9=0");
      (`False, "x=5 \\/ 1:r9=1");
      (`Residual, "1:r0=1 /\\ x=2");
      (`Residual, "1:r0=1 /\\ 1:r1=0 /\\ ~(x=1)");
      (`Residual, "x=1 \\/ 1:r1=2");
    ]
  in
  List.iter
    (fun quant ->
      List.iter
        (fun (kind, cond) ->
          let name = Printf.sprintf "%s (%s)" quant cond in
          let t = gate_test quant cond in
          let r, count = with_counters (fun () -> sat_check t) in
          let b = sat_check ~backend:Exec.Check.Batch t in
          Alcotest.(check string) (name ^ ": sat = batch")
            (Exec.Check.verdict_to_string b.Exec.Check.verdict)
            (Exec.Check.verdict_to_string r.Exec.Check.verdict);
          let structures = count "solve.structures"
          and refuted = count "solve.cond_refuted"
          and encoded = count "solve.encoded" in
          Alcotest.(check int) (name ^ ": refuted + encoded = structures")
            structures (refuted + encoded);
          (* forall asserts the negation *)
          let asserted_false =
            match (kind, quant) with
            | `False, ("exists" | "~exists") | `True, "forall" -> Some true
            | `True, ("exists" | "~exists") | `False, "forall" -> Some false
            | _ -> None
          in
          match asserted_false with
          | Some true ->
              Alcotest.(check int) (name ^ ": every structure refuted")
                structures refuted
          | Some false ->
              Alcotest.(check int) (name ^ ": no structure refuted") 0 refuted
          | None ->
              Alcotest.(check bool) (name ^ ": some structure encoded") true
                (encoded > 0))
        conds)
    [ "exists"; "~exists"; "forall" ]

(* MP's relaxed outcome fixes both registers, so most structures are
   refuted by their read values alone. *)
let test_mp_refutes () =
  let mp = Litmus.parse (Harness.Battery.find "MP").Harness.Battery.source in
  let r, count = with_counters (fun () -> sat_check mp) in
  let b = sat_check ~backend:Exec.Check.Batch mp in
  Alcotest.(check string) "MP sat = batch"
    (Exec.Check.verdict_to_string b.Exec.Check.verdict)
    (Exec.Check.verdict_to_string r.Exec.Check.verdict);
  Alcotest.(check bool) "some structure refuted" true
    (count "solve.cond_refuted" > 0);
  Alcotest.(check int) "refuted + encoded = structures"
    (count "solve.structures")
    (count "solve.cond_refuted" + count "solve.encoded")

(* ------------------------------------------------------------------ *)
(* The forensic pass                                                   *)
(* ------------------------------------------------------------------ *)

(* Every corpus Forbid, explained through the SAT backend: the
   re-solve without the axioms must find a candidate that matches the
   quantified condition and that the model or coherence rejects, and
   the explainer must say why. *)
let test_forensic_pass () =
  match corpus_dir with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      let forbids =
        List.filter (fun (_, lk) -> lk = "Forbid") (manifest dir)
      in
      Alcotest.(check bool) "corpus has Forbid tests" true (forbids <> []);
      List.iter
        (fun (file, _) ->
          let t =
            Litmus.parse (Harness.Runner.read_file (Filename.concat dir file))
          in
          let r =
            Exec.Oracle.run ~budget:(Exec.Budget.start Exec.Budget.default)
              ~backend:Exec.Check.Sat ~explainer:Lkmm.Explain.explainer
              Lkmm.oracle t
          in
          Alcotest.(check string) (file ^ " verdict") "Forbid"
            (Exec.Check.verdict_to_string r.Exec.Check.verdict);
          match r.Exec.Check.counterexample with
          | None -> Alcotest.failf "%s: no counterexample" file
          | Some x ->
              let holds = Exec.satisfies_cond x in
              let matches =
                match t.Litmus.Ast.quant with
                | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> holds
                | Litmus.Ast.Q_forall -> not holds
              in
              Alcotest.(check bool) (file ^ " matches the condition") true
                matches;
              Alcotest.(check bool) (file ^ " is rejected") true
                ((not (Lkmm.consistent x)) || not (Exec.coherent x));
              Alcotest.(check bool) (file ^ " is explained") true
                (r.Exec.Check.explanations <> []))
        forbids

(* ------------------------------------------------------------------ *)
(* Budget-breakers: Unknown enumeratively, decided symbolically        *)
(* ------------------------------------------------------------------ *)

let big_allow =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "C big-allow\n{ }\nP0(int *x) { int r0 = READ_ONCE(*x); }\n";
  for i = 1 to 9 do
    Buffer.add_string b
      (Printf.sprintf "P%d(int *x) { WRITE_ONCE(*x, 1); }\n" i)
  done;
  Buffer.add_string b "exists (0:r0=1)\n";
  Litmus.parse (Buffer.contents b)

let big_forbid =
  let b = Buffer.create 256 in
  Buffer.add_string b "C big-forbid\n{ }\n";
  Buffer.add_string b
    "P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_mb(); int r0 = \
     READ_ONCE(*y); }\n";
  Buffer.add_string b
    "P1(int *x, int *y) { WRITE_ONCE(*y, 1); smp_mb(); int r1 = \
     READ_ONCE(*x); }\n";
  for i = 2 to 10 do
    Buffer.add_string b
      (Printf.sprintf "P%d(int *z) { WRITE_ONCE(*z, 1); }\n" i)
  done;
  Buffer.add_string b "exists ((0:r0=0 /\\ 1:r1=0))\n";
  Litmus.parse (Buffer.contents b)

let expect_unknown name r =
  match r.Exec.Check.verdict with
  | Exec.Check.Unknown (Exec.Check.Budget_exceeded _) -> ()
  | v ->
      Alcotest.failf "%s: expected budget Unknown enumeratively, got %s" name
        (Exec.Check.verdict_to_string v)

let expect_verdict name want r =
  Alcotest.(check string) name want
    (Exec.Check.verdict_to_string r.Exec.Check.verdict)

let test_budget_breakers () =
  (* enumerative engines trip the default candidate cap on both *)
  expect_unknown "big-allow batch" (sat_check ~backend:Exec.Check.Batch big_allow);
  expect_unknown "big-forbid batch"
    (sat_check ~backend:Exec.Check.Batch big_forbid);
  (* the solver decides both under the same budget *)
  expect_verdict "big-allow sat" "Allow" (sat_check big_allow);
  expect_verdict "big-forbid sat" "Forbid" (sat_check big_forbid)

(* ------------------------------------------------------------------ *)
(* The re-validation contract                                          *)
(* ------------------------------------------------------------------ *)

(* SB+mbs: the LK model forbids the relaxed outcome, so a "solver" with
   its axioms gutted finds a witness the scalar model rejects —
   re-validation must turn that into a classified error, never a
   verdict. *)
let sb_mbs =
  Litmus.parse (Harness.Battery.find "SB+mbs").Harness.Battery.source

let test_tampered_axioms_spurious () =
  let tampered = Exec.Solve.make ~axioms:(fun _ -> ()) (module Lkmm) in
  (* budgeted: Spurious is caught and classified as Model_error *)
  (match
     (tampered ~budget:(Exec.Budget.start Exec.Budget.default) sb_mbs)
       .Exec.Check.verdict
   with
  | Exec.Check.Unknown (Exec.Check.Model_error (Exec.Solve.Spurious _)) -> ()
  | v ->
      Alcotest.failf "expected Spurious Model_error, got %s"
        (Exec.Check.verdict_to_string v));
  (* unbudgeted: the hard error propagates *)
  match tampered sb_mbs with
  | exception Exec.Solve.Spurious _ -> ()
  | r ->
      Alcotest.failf "expected Spurious exception, got verdict %s"
        (Exec.Check.verdict_to_string r.Exec.Check.verdict)

(* The counted fallback: requesting Sat from a solver-less oracle runs
   the enumerative path and says so on the result. *)
let test_sat_fallback_counted () =
  let scalar_only = Exec.Oracle.of_model (module Models.Sc) in
  let r =
    Exec.Oracle.run ~backend:Exec.Check.Sat scalar_only sb_mbs
  in
  match r.Exec.Check.sat with
  | Some s ->
      Alcotest.(check bool) "fallback flagged" true s.Exec.Check.fallback
  | None -> Alcotest.fail "fallback result carries no sat stats"

let () =
  Alcotest.run "sat"
    [
      ("cdcl-vs-dpll", qcheck_cases);
      ( "corpus",
        [
          Alcotest.test_case "sat agrees with golden + batch" `Slow
            test_corpus_agreement;
        ] );
      ( "condition gate",
        [
          Alcotest.test_case "quantifiers agree with batch" `Quick
            test_quantifiers;
          Alcotest.test_case "MP refutes by read values" `Quick
            test_mp_refutes;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "every corpus Forbid explained" `Slow
            test_forensic_pass;
        ] );
      ( "budget-breakers",
        [ Alcotest.test_case "solver decides what enum cannot" `Quick
            test_budget_breakers ] );
      ( "re-validation",
        [
          Alcotest.test_case "tampered axioms surface as Spurious" `Quick
            test_tampered_axioms_spurious;
          Alcotest.test_case "solver-less fallback is counted" `Quick
            test_sat_fallback_counted;
        ] );
    ]
