(* The symbolic SAT backend, three layers deep:

   - the CDCL core differentially against a transparently-correct DPLL
     reference ({!Dpll}) on random small instances and random 3-SAT
     near the threshold (outcome agreement, model validity,
     learned-clause entailment), the search itself pinned on pigeonhole
     instances, and [add_clause]'s level-0 simplification case by case;
   - the encoder end-to-end against the enumerative engines: verdict
     agreement over the whole golden corpus, through the public
     {!Exec.Oracle.run} entry the harness uses, and over a fixed set of
     generated diy tests; the coherence encoding alone (a model that
     accepts every candidate) against the enumerator's coherence
     prefilter on both; every quantifier with conditions the condition
     gate decides true, false or leaves to the solver; the forensic
     re-solve on every corpus Forbid;
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

let prop_agrees_with_dpll (nvars, clauses) =
  let _, outcome = cdcl_solve nvars clauses in
  let reference = Dpll.solve ~nvars clauses in
  match (outcome, reference) with
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
      Dpll.check model clauses

(* Every learned clause is entailed by the original instance:
   original /\ ~clause must be unsatisfiable (checked by the
   reference). *)
let prop_learned_entailed (nvars, clauses) =
  let s, _ = cdcl_solve nvars clauses in
  List.for_all
    (fun learnt ->
      let negated = List.map (fun l -> [ -l ]) learnt in
      Dpll.solve ~nvars (clauses @ negated) = None)
    (S.learnt_clauses s)

(* Random 3-SAT with 20-30 variables at about 4.3 clauses per variable,
   where satisfiable and unsatisfiable instances mix and the search
   reaches conflicts, backjumps and restarts. *)
let gen_3sat =
  QCheck.Gen.(
    int_range 20 30 >>= fun nvars ->
    let gen_lit =
      map2 (fun v neg -> if neg then -v else v) (int_range 1 nvars) bool
    in
    list_repeat (int_of_float (4.3 *. float_of_int nvars))
      (list_repeat 3 gen_lit)
    >|= fun clauses -> (nvars, clauses))

let arb_3sat = QCheck.set_gen gen_3sat arb_instance

let prop_3sat (nvars, clauses) =
  let s, outcome = cdcl_solve nvars clauses in
  match (outcome, Dpll.solve ~nvars clauses) with
  | S.Unsat, None -> true
  | S.Sat, Some _ ->
      Dpll.check (Array.init (nvars + 1) (fun v -> v > 0 && S.value s v))
        clauses
  | S.Sat, None | S.Unsat, Some _ -> false

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      QCheck.Test.make ~count:500 ~name:"cdcl agrees with dpll reference"
        arb_instance prop_agrees_with_dpll;
      QCheck.Test.make ~count:500 ~name:"cdcl models satisfy the instance"
        arb_instance prop_model_satisfies;
      QCheck.Test.make ~count:200 ~name:"learned clauses are entailed"
        arb_instance prop_learned_entailed;
      QCheck.Test.make ~count:200 ~name:"random 3-sat agrees with dpll"
        arb_3sat prop_3sat;
    ]

(* PHP(p -> p-1): p pigeons, one hole fewer, each pigeon in some hole
   and no hole shared; unsatisfiable, and hard enough for resolution
   to exercise learning, backjumping and restarts.  The search is
   deterministic, so its counts are pinned.  They are those of
   branching by a linear scan for the most active unassigned variable,
   lowest index first, which the order heap must reproduce; a change
   to them is a change to the search.  PHP(8 -> 7) passes the ~4490
   conflicts after which a bumped activity exceeds 1e100, so it also
   runs [rescale]. *)
let php p =
  let h = p - 1 in
  let s = S.create () in
  for _ = 1 to p * h do
    ignore (S.new_var s)
  done;
  let v i j = ((i - 1) * h) + j in
  for i = 1 to p do
    S.add_clause s (List.init h (fun j -> v i (j + 1)))
  done;
  for j = 1 to h do
    for i = 1 to p do
      for k = i + 1 to p do
        S.add_clause s [ -v i j; -v k j ]
      done
    done
  done;
  (S.solve s, S.stats s)

let test_pigeonhole () =
  List.iter
    (fun (p, conflicts, decisions, restarts) ->
      let name = Printf.sprintf "PHP(%d->%d)" p (p - 1) in
      let outcome, st = php p in
      Alcotest.(check bool) (name ^ " unsat") true (outcome = S.Unsat);
      Alcotest.(check int) (name ^ " conflicts") conflicts st.S.conflicts;
      Alcotest.(check int) (name ^ " decisions") decisions st.S.decisions;
      Alcotest.(check int) (name ^ " restarts") restarts st.S.restarts)
    [
      (5, 28, 38, 0);
      (6, 165, 210, 2);
      (7, 788, 987, 7);
      (8, 5267, 6556, 32);
    ]

(* [add_clause]'s one-pass simplification under the level-0
   assignment, each case observed through the search: a clause reduced
   to a unit is asserted at level 0, so it costs no decision. *)
let test_add_clause () =
  let instance nvars clauses =
    let s = S.create () in
    for _ = 1 to nvars do
      ignore (S.new_var s)
    done;
    List.iter (S.add_clause s) clauses;
    let outcome = S.solve s in
    (s, outcome, (S.stats s).S.decisions)
  in
  let expect name nvars clauses ~sat ~decisions ~true_vars =
    let s, outcome, d = instance nvars clauses in
    Alcotest.(check bool) (name ^ ": outcome") sat (outcome = S.Sat);
    Alcotest.(check int) (name ^ ": decisions") decisions d;
    List.iter
      (fun v ->
        Alcotest.(check bool) (Printf.sprintf "%s: var %d" name v) true
          (S.value s v))
      true_vars
  in
  expect "duplicates merge into a unit" 1 [ [ 1; 1; 1 ] ] ~sat:true
    ~decisions:0 ~true_vars:[ 1 ];
  (* 3 and -3 are not neighbours in integer order *)
  expect "tautology constrains nothing" 3
    [ [ -3; 1; 3 ]; [ -1 ]; [ -2 ] ]
    ~sat:true ~decisions:1 ~true_vars:[];
  expect "false literals drop out" 2 [ [ 1 ]; [ -1; 2 ] ] ~sat:true
    ~decisions:0 ~true_vars:[ 1; 2 ];
  expect "a true literal discharges the clause" 2
    [ [ 1 ]; [ 1; -2 ]; [ 2 ] ]
    ~sat:true ~decisions:0 ~true_vars:[ 1; 2 ];
  expect "all literals false" 2 [ [ 1 ]; [ 2 ]; [ -1; -2 ] ] ~sat:false
    ~decisions:0 ~true_vars:[];
  expect "the empty clause" 1 [ [] ] ~sat:false ~decisions:0 ~true_vars:[];
  (* polarities met in one clause do not leak into the next *)
  expect "consecutive clauses" 2
    [ [ 1; 2 ]; [ -1; 2 ]; [ -2 ] ]
    ~sat:false ~decisions:0 ~true_vars:[];
  (* clauses longer than the scratch buffer's first 16 slots, in
     descending order with a duplicate, so the sort and the growth run *)
  let long extra = List.init 40 (fun i -> 40 - i) @ extra in
  let units_except keep =
    List.filter_map
      (fun v -> if List.mem v keep then None else Some [ -v ])
      (List.init 40 (fun i -> i + 1))
  in
  expect "a long clause reduced to a unit" 40
    (units_except [ 23 ] @ [ long [ 7; 23; 7 ] ])
    ~sat:true ~decisions:0 ~true_vars:[ 23 ];
  expect "a long clause keeps its free literals" 40
    (units_except [ 23; 31 ] @ [ long [ 31; 7 ]; [ -23 ] ])
    ~sat:true ~decisions:0 ~true_vars:[ 31 ];
  (* dropping the pair would leave the units unsatisfiable, keeping
     either literal would force 33 *)
  expect "a long tautology constrains nothing" 40
    (long [ 7; -33 ] :: units_except [ 33 ])
    ~sat:true ~decisions:1 ~true_vars:[];
  List.iter
    (fun (name, clause) ->
      let s = S.create () in
      ignore (S.new_var s);
      ignore (S.new_var s);
      match S.add_clause s clause with
      | () -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("unallocated variable", [ 1; 3 ]);
      ("literal 0", [ 0 ]);
      ("unallocated variable in a tautology", [ 1; -1; -3 ]);
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
(* Beyond the corpus                                                   *)
(* ------------------------------------------------------------------ *)

(* The diy vocabulary has no same-location program-order edge, so its
   cycles rarely put two accesses to one location in one thread.  These
   shapes do: Herding Cats' two-access coherence tests (CoRR, CoRW1,
   CoRW2, CoWR, CoWW), each with every outcome of its registers and
   final memory as a condition, and three writers that each read
   another's write back, which orders co through all three threads in
   either cyclic direction. *)
let coherence_shapes =
  let shapes =
    [
      ( "CoRR",
        "P0(int *x) { WRITE_ONCE(*x, 1); }\n\
         P1(int *x) { int r0 = READ_ONCE(*x); int r1 = READ_ONCE(*x); }",
        [ [ "1:r0=0"; "1:r0=1" ]; [ "1:r1=0"; "1:r1=1" ] ] );
      ( "CoRW1",
        "P0(int *x) { int r0 = READ_ONCE(*x); WRITE_ONCE(*x, 1); }",
        [ [ "0:r0=0"; "0:r0=1" ] ] );
      ( "CoRW2",
        "P0(int *x) { int r0 = READ_ONCE(*x); WRITE_ONCE(*x, 1); }\n\
         P1(int *x) { WRITE_ONCE(*x, 2); }",
        [ [ "0:r0=0"; "0:r0=2" ]; [ "x=1"; "x=2" ] ] );
      ( "CoWR",
        "P0(int *x) { WRITE_ONCE(*x, 1); int r0 = READ_ONCE(*x); }\n\
         P1(int *x) { WRITE_ONCE(*x, 2); }",
        [ [ "0:r0=0"; "0:r0=1"; "0:r0=2" ]; [ "x=1"; "x=2" ] ] );
      ( "CoWW",
        "P0(int *x) { WRITE_ONCE(*x, 1); WRITE_ONCE(*x, 2); }",
        [ [ "x=1"; "x=2" ] ] );
      ( "Co3",
        "P0(int *x) { WRITE_ONCE(*x, 1); int r0 = READ_ONCE(*x); }\n\
         P1(int *x) { WRITE_ONCE(*x, 2); int r1 = READ_ONCE(*x); }\n\
         P2(int *x) { WRITE_ONCE(*x, 3); int r2 = READ_ONCE(*x); }",
        [ [ "0:r0=2 /\\ 1:r1=3 /\\ 2:r2=1"; "0:r0=3 /\\ 2:r2=2 /\\ 1:r1=1" ] ]
      );
    ]
  in
  let rec product = function
    | [] -> [ [] ]
    | atoms :: rest ->
        List.concat_map
          (fun a -> List.map (fun c -> a :: c) (product rest))
          atoms
  in
  List.concat_map
    (fun (name, threads, atoms) ->
      List.map
        (fun conj ->
          Litmus.parse
            (Printf.sprintf "C %s\n{ }\n%s\nexists (%s)\n" name threads
               (String.concat " /\\ " conj)))
        (product atoms))
    shapes

(* A fixed generated set: the coherence shapes, every size-4 cycle over
   the core vocabulary, and 300 seeded samples each of sizes 5 and 6
   over the full one (fences, dependencies, release/acquire). *)
let generated =
  lazy
    (let sampled size =
       Diygen.sample ~rng:(Random.State.make [| size |]) ~count:300 size
     in
     coherence_shapes
     @ Diygen.generate ~vocabulary:Diygen.Edge.core_vocabulary 4
     @ sampled 5 @ sampled 6)

let corpus_tests () =
  match corpus_dir with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      List.map
        (fun (file, _) ->
          Litmus.parse (Harness.Runner.read_file (Filename.concat dir file)))
        (manifest dir)

(* A model that accepts every candidate: all that is left of a check is
   coherence.  [Solve.run] with no axioms decides it by the Scpv
   clauses, [Check.run] by the sc-per-location prefilter
   ([Execution.coherent]); both ask whether some coherent candidate
   matches the condition, so their verdicts must be equal. *)
module Coherent_only = struct
  let name = "coherent-only"
  let consistent _ = true
end

let test_coherence_only () =
  let tests = corpus_tests () @ Lazy.force generated in
  let allow = ref 0 in
  List.iter
    (fun (t : Litmus.Ast.t) ->
      let sat =
        Exec.Solve.run ~axioms:(fun _ -> ()) (module Coherent_only) t
      in
      let enum = Exec.Check.run (module Coherent_only) t in
      let v r = Exec.Check.verdict_to_string r.Exec.Check.verdict in
      Alcotest.(check string) (t.Litmus.Ast.name ^ " sat = enum") (v enum)
        (v sat);
      if sat.Exec.Check.verdict = Exec.Check.Allow then incr allow)
    tests;
  (* both verdicts occur, so neither side can pass by answering one *)
  Alcotest.(check bool) "some Allow" true (!allow > 0);
  Alcotest.(check bool) "some Forbid" true (!allow < List.length tests)

(* The native LK oracle on the generated set: the solver's verdict must
   equal the batched engine's, as on the corpus. *)
let test_generated_agreement () =
  let tests = Lazy.force generated in
  Alcotest.(check bool) "generated set is substantial" true
    (List.length tests > 500);
  List.iter
    (fun (t : Litmus.Ast.t) ->
      let r = sat_check t and b = sat_check ~backend:Exec.Check.Batch t in
      Alcotest.(check string) (t.Litmus.Ast.name ^ " sat = batch")
        (Exec.Check.verdict_to_string b.Exec.Check.verdict)
        (Exec.Check.verdict_to_string r.Exec.Check.verdict))
    tests

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

(* The CNF-size counters cover the structures [solve.encoded] counts:
   the forensic re-solves an explainer triggers add nothing to them. *)
let test_cnf_counters () =
  let t =
    Litmus.parse (Harness.Battery.find "Z6-0+mbs").Harness.Battery.source
  in
  let cnf ?explainer () =
    let r, count =
      with_counters (fun () ->
          Exec.Oracle.run ~budget:(Exec.Budget.start Exec.Budget.default)
            ~backend:Exec.Check.Sat ?explainer Lkmm.oracle t)
    in
    Alcotest.(check string) "verdict" "Forbid"
      (Exec.Check.verdict_to_string r.Exec.Check.verdict);
    (count "solve.encoded", count "solve.vars", count "solve.clauses")
  in
  let ((encoded, vars, clauses) as plain) = cnf () in
  Alcotest.(check bool) "structures encoded" true (encoded > 0);
  Alcotest.(check bool) "variables and clauses counted" true
    (vars > 0 && clauses > 0);
  Alcotest.(check (triple int int int)) "explained = plain" plain
    (cnf ~explainer:Lkmm.Explain.explainer ())

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
      ( "cdcl",
        [
          Alcotest.test_case "pigeonhole search is pinned" `Quick
            test_pigeonhole;
          Alcotest.test_case "add_clause simplifies at level 0" `Quick
            test_add_clause;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "sat agrees with golden + batch" `Slow
            test_corpus_agreement;
        ] );
      ( "generated",
        [
          Alcotest.test_case "coherence-only sat = enum prefilter" `Slow
            test_coherence_only;
          Alcotest.test_case "sat agrees with batch" `Slow
            test_generated_agreement;
        ] );
      ( "condition gate",
        [
          Alcotest.test_case "quantifiers agree with batch" `Quick
            test_quantifiers;
          Alcotest.test_case "MP refutes by read values" `Quick
            test_mp_refutes;
          Alcotest.test_case "CNF counters cover the main pass" `Quick
            test_cnf_counters;
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
