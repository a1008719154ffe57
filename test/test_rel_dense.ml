(* Differential tests: the dense bitset kernel ({!Rel}) against the
   pair-set specification in test/rel_ref.ml, operator by operator, on
   randomized relations — plus end-to-end agreement checks
   on a corpus sample (verdicts against an unfiltered reference loop and
   the direct cat interpreter), the soundness argument for the prefilter
   made executable (candidates it rejects never satisfy the model), and
   fr = rf^-1;co on enumerated and SAT-decoded candidates, and the
   enumerator's CPU time against a fixed computation.

   Trial tally: the operator suite alone draws 2 relations per trial ×
   5400 trials, the closure/row/cycle suites another 2700 each and the
   linear-extension suite 500: well over 10k randomized relations. *)

module D = Rel
module S = Rel_ref
module Iset = Rel.Iset

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* (universe size, pairs1, pairs2, gapped): ids in [0, n).  Three
   trials in four draw both lists over the whole universe, at sizes
   that cross the 63-bit row word at 64.  The fourth draws an edge
   shape, at those sizes or 63: an empty list on either side of a
   binary operator, or one list below n / 2 + 1, so the operands'
   capacities differ (and their row widths, at n >= 64).  [gapped] is
   a universe with holes, for the identity and the reflexive closures.
   Each suite's count is 4/3 of the whole-universe trials it keeps. *)
let gen_input =
  let open QCheck2.Gen in
  let pairs m =
    list_size (int_range 0 (2 * m))
      (tup2 (int_range 0 (m - 1)) (int_range 0 (m - 1)))
  in
  let whole =
    let* n = oneofl [ 3; 6; 13; 24; 64; 70 ] in
    tup3 (return n) (pairs n) (pairs n)
  in
  let edge =
    let* n = oneofl [ 3; 6; 13; 24; 63; 64; 70 ] in
    let small = pairs ((n / 2) + 1) in
    oneof
      [
        tup3 (return n) (return []) (pairs n);
        tup3 (return n) (pairs n) (return []);
        tup3 (return n) small (pairs n);
        tup3 (return n) (pairs n) small;
      ]
  in
  let* n, ps1, ps2 = frequency [ (3, whole); (1, edge) ] in
  let gapped = list_size (int_range 0 n) (int_range 0 (n - 1)) in
  tup4 (return n) (return ps1) (return ps2) gapped

let agree d s = D.to_list d = S.to_list s

(* ------------------------------------------------------------------ *)
(* Operator-by-operator agreement                                      *)
(* ------------------------------------------------------------------ *)

let prop_ops_agree =
  QCheck2.Test.make ~name:"every operator agrees with the reference"
    ~count:5400 gen_input (fun (n, ps1, ps2, gapped) ->
      let d1 = D.of_list ps1 and d2 = D.of_list ps2 in
      let s1 = S.of_list ps1 and s2 = S.of_list ps2 in
      let u = Iset.of_range 0 (n - 1) in
      let half = Iset.of_range 0 (n / 2) in
      let p a b = (a + b) mod 2 = 0 in
      agree d1 s1 && agree d2 s2
      && D.cardinal d1 = S.cardinal s1
      && D.is_empty d1 = S.is_empty s1
      && D.equal d1 d2 = S.equal s1 s2
      && D.subset d1 d2 = S.subset s1 s2
      && D.mem 0 (n - 1) d1 = S.mem 0 (n - 1) s1
      && agree (D.add (n - 1) 0 d1) (S.add (n - 1) 0 s1)
      && agree (D.union d1 d2) (S.union s1 s2)
      && agree (D.inter d1 d2) (S.inter s1 s2)
      && agree (D.diff d1 d2) (S.diff s1 s2)
      && agree (D.seq d1 d2) (S.seq s1 s2)
      && agree (D.seqs [ d1; d2; d1 ]) (S.seqs [ s1; s2; s1 ])
      && agree (D.inverse d1) (S.inverse s1)
      && agree (D.filter p d1) (S.filter p s1)
      && D.exists p d1 = S.exists p s1
      && D.for_all p d1 = S.for_all p s1
      && Iset.equal (D.domain d1) (S.domain s1)
      && Iset.equal (D.range d1) (S.range s1)
      && Iset.equal (D.field d1) (S.field s1)
      && agree (D.id_of_set half) (S.id_of_set half)
      && agree (D.id_of_set (Iset.of_list gapped))
           (S.id_of_set (Iset.of_list gapped))
      && agree
           (D.id_of_list [ n - 1; 0; n - 1 ])
           (S.id_of_list [ n - 1; 0; n - 1 ])
      && agree (D.init n (fun a b -> S.mem a b s1 && p a b)) (S.filter p s1)
      && agree (D.cartesian half u) (S.cartesian half u)
      && agree (D.restrict_domain half d1) (S.restrict_domain half s1)
      && agree (D.restrict_range half d1) (S.restrict_range half s1)
      && agree (D.restrict half d1) (S.restrict half s1)
      && agree (D.complement ~universe:u d1) (S.complement ~universe:u s1)
      && D.fold (fun a b acc -> (a, b) :: acc) d1 []
         = S.fold (fun a b acc -> (a, b) :: acc) s1 [])

let prop_closures_agree =
  QCheck2.Test.make ~name:"closures agree with the reference" ~count:2700
    gen_input (fun (n, ps1, _, gapped) ->
      let d = D.of_list ps1 and s = S.of_list ps1 in
      let u = Iset.of_range 0 (n - 1) in
      let g = Iset.of_list gapped in
      agree (D.transitive_closure d) (S.transitive_closure s)
      && agree (D.reflexive_closure ~universe:g d)
           (S.reflexive_closure ~universe:g s)
      && agree
           (D.reflexive_transitive_closure ~universe:g d)
           (S.reflexive_transitive_closure ~universe:g s)
      && agree (D.reflexive_closure ~universe:u d)
           (S.reflexive_closure ~universe:u s)
      && agree
           (D.reflexive_transitive_closure ~universe:u d)
           (S.reflexive_transitive_closure ~universe:u s))

(* The row primitives the symbolic relations compose with, at rows
   inside, on and past the edge of the universe. *)
let prop_rows_agree =
  QCheck2.Test.make ~name:"row primitives agree with the reference"
    ~count:2700 gen_input (fun (n, ps1, ps2, _) ->
      let d1 = D.of_list ps1 and d2 = D.of_list ps2 in
      let s1 = S.of_list ps1 and s2 = S.of_list ps2 in
      let collect iter =
        let acc = ref [] in
        iter (fun y -> acc := y :: !acc);
        List.rev !acc
      in
      let row s x =
        List.filter_map (fun (a, b) -> if a = x then Some b else None)
          (S.to_list s)
      in
      let probes = [ 0; n / 2; n - 1; n ] in
      List.for_all
        (fun x ->
          collect (fun f -> D.iter_row f d1 x) = row s1 x
          && List.for_all
               (fun z ->
                 collect (fun f -> D.iter_row_inter f d1 x d2 z)
                 = List.filter (fun y -> S.mem z y s2) (row s1 x))
               probes)
        probes)

let prop_cyclicity_agrees =
  QCheck2.Test.make ~name:"acyclicity, cycles and sorts agree" ~count:2700
    gen_input (fun (n, ps1, _, _) ->
      let d = D.of_list ps1 and s = S.of_list ps1 in
      let u = Iset.of_range 0 (n - 1) in
      D.is_acyclic d = S.is_acyclic s
      && D.is_irreflexive d = S.is_irreflexive s
      (* both return a *shortest* cycle; the witness may differ, its
         length may not *)
      && Option.map List.length (D.find_cycle d)
         = Option.map List.length (S.find_cycle s)
      && D.topological_sort ~universe:u d = S.topological_sort ~universe:u s)

let prop_linear_extensions_agree =
  QCheck2.Test.make ~name:"linear extensions agree (incl. duplicates)"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 4) (int_range 0 3))
    (fun elems ->
      let sort = List.sort compare in
      sort (List.map D.to_list (D.linear_extensions elems))
      = sort (List.map S.to_list (S.linear_extensions elems)))

(* The class-mask constructor against {!Rel.init} over its predicate:
   sizes from one event past two row words, classes drawn with a
   negative one (a class of its own per member) among them. *)
let prop_of_classes_agrees =
  QCheck2.Test.make ~name:"of_classes agrees with init" ~count:1000
    ~print:QCheck2.Print.(array int)
    QCheck2.Gen.(
      let* n = int_range 1 130 in
      let* k = int_range 1 6 in
      array_size (return n) (int_range (-1) (k - 1)))
    (fun classes ->
      let n = Array.length classes in
      let same x y = x <> y && classes.(x) >= 0 && classes.(x) = classes.(y) in
      D.equal (D.of_classes `Same classes) (D.init n same)
      && D.equal
           (D.of_classes `Later classes)
           (D.init n (fun x y -> x < y && same x y))
      && D.equal
           (D.of_classes `Other classes)
           (D.init n (fun x y -> x <> y && not (same x y))))

(* ------------------------------------------------------------------ *)
(* Corpus sample: end-to-end agreement and prefilter soundness         *)
(* ------------------------------------------------------------------ *)

(* A seeded diygen set: generated shapes beyond the hand-written corpus
   (fences, dependencies, release/acquire). *)
let diygen_tests =
  lazy
    (Diygen.sample ~rng:(Random.State.make [| 15 |]) ~count:60 5
    |> List.map (fun (t : Litmus.Ast.t) -> (t.Litmus.Ast.name, t)))

let result_key (r : Exec.Check.result) =
  (r.verdict, r.n_candidates, r.n_consistent, r.n_matching, r.outcomes)

(* The checker's definition with no prefilter: every candidate of the
   verdict stream through the model, keyed like {!result_key}. *)
let reference_key (module M : Exec.Check.MODEL) (test : Litmus.Ast.t) =
  let satisfies x =
    match test.Litmus.Ast.quant with
    | Litmus.Ast.Q_forall -> not (Exec.satisfies_cond x)
    | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> Exec.satisfies_cond x
  in
  let n = ref 0 and consistent = ref 0 and matching = ref 0 in
  let outcomes = ref [] in
  Seq.iter
    (fun x ->
      incr n;
      if M.consistent x then begin
        incr consistent;
        let sat = satisfies x in
        if sat then incr matching;
        outcomes := (Exec.outcome x, sat) :: !outcomes
      end)
    (Exec.of_test_seq test);
  ( (if !matching > 0 then Exec.Check.Allow else Exec.Check.Forbid),
    !n,
    !consistent,
    !matching,
    List.sort_uniq compare !outcomes )

(* The reference cat interpreter, no compiled model and no prefix
   cache. *)
let cat_direct : (module Exec.Check.MODEL) =
  (module struct
    let name = "LK(cat), direct"
    let consistent x = Cat_ref.consistent (Lazy.force Cat.lk) x
  end)

(* The prefilter and the static-prefix cache must be invisible in the
   results: the native check against {!reference_key}, and the cat
   oracle's cached scalar engine (one oracle across the whole sample, so
   a prefix slot that outlived its structure would show) against the
   direct interpreter. *)
let test_corpus_agreement () =
  let cat = Lazy.force Cpu_ratio.lk_cat in
  List.iter
    (fun (file, test) ->
      let native =
        List.hd (Exec.Check.run [ Exec.Check.model (module Lkmm) ] test)
      in
      Alcotest.(check bool)
        (file ^ ": native verdicts agree with the unfiltered reference")
        true
        (result_key native = reference_key (module Lkmm) test);
      let cat_cached = Exec.Oracle.run ~backend:Exec.Check.Enum cat test in
      Alcotest.(check bool)
        (file ^ ": cat verdicts agree with the direct interpreter")
        true
        (result_key cat_cached
        = result_key
            (List.hd (Exec.Check.run [ Exec.Check.model cat_direct ] test)));
      Alcotest.(check bool)
        (file ^ ": native and cat verdicts agree")
        true
        (native.verdict = cat_cached.verdict))
    (Cpu_ratio.sample_tests 11)

(* Every shipped cat model, as the CLIs package it. *)
let cat_oracles =
  lazy
    (List.map
       (fun (name, _, src) -> (name, Cat.to_oracle ~name (Cat.parse src)))
       Cat.Stdmodels.all)

let witness_rels (x : Exec.t option) =
  Option.map (fun (x : Exec.t) -> (Rel.to_list x.rf, Rel.to_list x.co)) x

let full_key (r : Exec.Check.result) =
  (result_key r, r.n_prefiltered, witness_rels r.witness)

(* The oracle entry, prefilter and all, must be invisible in the
   results, down to witness identity, for the native axioms and every
   shipped cat model: against {!reference_key}, and the witness against
   the first consistent matching candidate of the verdict stream. *)
let test_batched_agreement () =
  List.iter
    (fun (file, test) ->
      List.iter
        (fun (what, oracle) ->
          let (module M : Exec.Check.MODEL) = Exec.Oracle.model oracle () in
          let r = Exec.Oracle.run oracle test in
          let witness =
            Seq.find
              (fun x ->
                M.consistent x
                && Exec.satisfies_cond x
                   <> (test.Litmus.Ast.quant = Litmus.Ast.Q_forall))
              (Exec.of_test_seq test)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s agrees with the unfiltered reference"
               file what)
            true
            (result_key r = reference_key (module M) test
            && witness_rels r.witness = witness_rels witness))
        (("native", Lkmm.oracle) :: Lazy.force cat_oracles))
    (Cpu_ratio.sample_tests 11)

(* One call over several models must be invisible in each model's
   result: [Check.run ms] equals, model by model, [Check.run [m]], down
   to the engine, witness and counterexample identity and the
   explanations. *)
let shared_key (r : Exec.Check.result) =
  ( full_key r,
    r.backend,
    witness_rels r.counterexample,
    List.map Exec.Explain.to_string r.explanations )

(* The models a test is compared under, as (name, oracle, explainer):
   native LK, each shipped cat model, SC, and native C11 where it
   applies. *)
let model_pool test =
  (("native", Lkmm.oracle, Some Lkmm.Explain.explainer)
  :: List.map2
       (fun (what, oracle) (_, _, src) ->
         (what, oracle, Some (Cat.Explain.explainer (Cat.parse src))))
       (Lazy.force cat_oracles) Cat.Stdmodels.all)
  @ [ ("SC", Exec.Oracle.of_model (module Models.Sc), None) ]
  @
  if Models.C11.applicable test then
    [ ("C11", Exec.Oracle.of_model (module Models.C11), None) ]
  else []

(* An oracle's model for [Check.run]. *)
let check_model ?explainer (o : Exec.Oracle.t) =
  Exec.Check.model ?explainer (Exec.Oracle.model o ())

let rec first_conjunct = function
  | Litmus.Ast.And (c, _) -> first_conjunct c
  | c -> c

(* The corpus sample, the battery, and the battery with each condition
   cut to its first conjunct: then many candidates match, and models of
   different strength meet their first witness at different ones. *)
let shared_tests () =
  Cpu_ratio.sample_tests 11
  @ List.concat_map
      (fun (e : Harness.Battery.entry) ->
        let t = Harness.Battery.test_of e in
        [
          (e.Harness.Battery.name, t);
          ( e.Harness.Battery.name ^ " (first conjunct)",
            { t with cond = first_conjunct t.cond } );
        ])
      Harness.Battery.all

(* Model lists drawn from the pool: all of it with the explainers, and
   all of it reversed without them (the scalar-only models first). *)
let test_shared_agreement () =
  List.iter
    (fun (file, test) ->
      let pool = model_pool test in
      List.iter
        (fun (explain, pool) ->
          let model (_, o, ex) =
            check_model ?explainer:(if explain then ex else None) o
          in
          let shared = Exec.Check.run (List.map model pool) test in
          List.iter2
            (fun ((what, _, _) as m) r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s%s, shared = single" file what
                   (if explain then " explained" else ""))
                true
                (shared_key r
                = shared_key (List.hd (Exec.Check.run [ model m ] test))))
            pool shared)
        [ (true, pool); (false, List.rev pool) ])
    (shared_tests ())

let corpus_test file =
  List.assoc file (Cpu_ratio.sample_tests 1)

(* A budget is the call's: a candidate cap trips at the candidate where
   each one-model call trips (here the claim for the second structure
   SB+xchg-mb's condition leaves open, after the 3 candidates of the
   first), and every model reports that count. *)
let test_shared_budget () =
  let test = Harness.Battery.test_of (Harness.Battery.find "SB+xchg-mb") in
  let pool = model_pool test in
  let cap = 3 in
  let budget () =
    Exec.Budget.start (Exec.Budget.limits ~max_candidates:cap ())
  in
  let models = List.map (fun (_, o, _) -> check_model o) pool in
  let shared = Exec.Check.run ~budget:(budget ()) models test in
  List.iter2
    (fun m (r : Exec.Check.result) ->
      let single = List.hd (Exec.Check.run ~budget:(budget ()) [ m ] test) in
      Alcotest.(check bool) "Unknown at the cap" true
        (r.verdict
         = Exec.Check.Unknown
             (Exec.Check.Budget_exceeded (Exec.Budget.Too_many_candidates cap))
        && r.n_candidates > 0);
      Alcotest.(check bool) "shared = single under the cap" true
        (shared_key r = shared_key single))
    models shared

(* A model that raises on the [k]-th candidate it decides. *)
let raising k : (module Exec.Check.MODEL) =
  let seen = ref 0 in
  (module struct
    let name = "raising"

    let consistent x =
      incr seen;
      if !seen = k then failwith "raising model" else Lkmm.consistent x
  end)

(* A model error settles its model alone: it gets
   [Unknown (Model_error _)] and every other model of the call its
   one-model result.  Without a budget the error propagates.  2+2W's
   verdict stream holds four coherent candidates, so the model decides
   a third. *)
let test_shared_model_error () =
  let test = Harness.Battery.test_of (Harness.Battery.find "2+2W") in
  let budget () = Exec.Budget.start Exec.Budget.unlimited in
  let others = List.map (fun (_, o, _) -> check_model o) (model_pool test) in
  let models =
    List.hd others :: Exec.Check.model (raising 3) :: List.tl others
  in
  match Exec.Check.run ~budget:(budget ()) models test with
  | lk :: failed :: rest ->
      Alcotest.(check bool) "the raising model's Unknown" true
        (failed.verdict
        = Exec.Check.Unknown (Exec.Check.Model_error (Failure "raising model")));
      List.iter2
        (fun m (r : Exec.Check.result) ->
          Alcotest.(check bool) "the others go on" true
            (shared_key r
            = shared_key
                (List.hd (Exec.Check.run ~budget:(budget ()) [ m ] test))))
        others (lk :: rest);
      Alcotest.check_raises "no budget: it propagates"
        (Failure "raising model") (fun () ->
          ignore
            (Exec.Check.run
               (List.hd others :: [ Exec.Check.model (raising 3) ])
               test))
  | _ -> Alcotest.fail "one result per model"

(* The oracle-level entry on every backend, [Sat] included: each
   result equals that oracle's own [Oracle.run] under the same limits
   (a candidate cap equal to the largest sample test's count). *)
let test_run_all () =
  let budget () =
    Exec.Budget.start (Exec.Budget.limits ~max_candidates:120 ())
  in
  List.iter
    (fun (file, test) ->
      let oracles = List.map (fun (_, o, _) -> o) (model_pool test) in
      List.iter
        (fun backend ->
          let shared =
            Exec.Oracle.run_all ~budget:(budget ()) ~backend oracles test
          in
          List.iter2
            (fun o (r : Exec.Check.result) ->
              let single = Exec.Oracle.run ~budget:(budget ()) ~backend o test in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s on %s, run_all = run" file
                   (Exec.Oracle.name o)
                   (Exec.Check.backend_to_string backend))
                true
                (shared_key r = shared_key single && r.sat = single.sat))
            oracles shared)
        [ Exec.Check.Enum; Exec.Check.Sat ])
    (Cpu_ratio.sample_tests 23 @ [ ("large", corpus_test "Coe-Coe-Coe-MbdWW-MbdWR-Fre.litmus") ])

(* The enumerator's absolute speed: its pass over the corpus slice,
   under native LK and lk.cat, against {!Cpu_ratio.reference} timed in
   the same process.  The ratio may at
   most double from its value when the cat engines went to slot form:
   0.95, the median of 12 runs of this case on a 2-vCPU host (range
   0.79-0.98).  It read 0.38-0.41 in three runs at the first
   closure-free kernels and 0.370-0.375 in three at the final ones. *)
let enum_over_reference = 0.95

let test_scalar_absolute () =
  let r =
    Cpu_ratio.median ~base:Cpu_ratio.reference
      (Cpu_ratio.battery
         ~native:(Exec.Oracle.run ~backend:Exec.Check.Enum Lkmm.oracle)
         ~cat:
           (Exec.Oracle.run ~backend:Exec.Check.Enum
              (Lazy.force Cpu_ratio.lk_cat)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Enum/reference CPU %.3f <= 2 x %.2f" r
       enum_over_reference)
    true
    (r <= 2. *. enum_over_reference)

(* fr = rf⁻¹;co minus identity, the definition the library builds row by
   row instead: on every enumerated candidate, and on every witness the
   SAT backend decodes. *)
let fr_reference (x : Exec.t) =
  Rel.diff (Rel.seq (Rel.inverse x.rf) x.co) x.id_r

let test_fr_definition () =
  let candidates = ref 0 and witnesses = ref 0 in
  let wrong (x : Exec.t) = not (Rel.equal x.fr (fr_reference x)) in
  List.iter
    (fun (file, test) ->
      let bad = ref 0 in
      Seq.iter
        (fun x ->
          incr candidates;
          if wrong x then incr bad)
        (Exec.candidates test);
      Alcotest.(check int)
        (file ^ ": enumerated candidates whose fr is not rf^-1;co")
        0 !bad;
      let r = Exec.Oracle.run ~backend:Exec.Check.Sat Lkmm.oracle test in
      Option.iter
        (fun w ->
          incr witnesses;
          Alcotest.(check bool) (file ^ ": decoded fr is rf^-1;co") false
            (wrong w))
        r.witness)
    (Cpu_ratio.sample_tests 3 @ Lazy.force diygen_tests);
  Alcotest.(check bool)
    (Printf.sprintf "%d candidates checked" !candidates)
    true (!candidates > 500);
  Alcotest.(check bool)
    (Printf.sprintf "%d SAT witnesses checked" !witnesses)
    true (!witnesses > 50)

(* Statics once per shape: every skeleton's shared statics must be
   exactly those of an unshared per-structure build ({!Statics_ref}),
   and two candidates of one enumeration share a shape iff
   {!Exec.static_compatible} holds.  Over the corpus, the battery, the
   diygen sample and one hand-written test whose structures have the
   same events up to values but different dependencies: the branch
   picks which read's register the write to z stores, so a shape key
   that ignored dependency pairs would hand one structure the other's
   data edge. *)
let shape_deps =
  Litmus.parse
    {|C shape-deps

{ }

P0(int *x, int *y, int *z) {
  int r0 = READ_ONCE(*x);
  int r1 = READ_ONCE(*y);
  int r2 = 0;
  if ((r0 == 1)) {
    r2 = r0;
  } else {
    r2 = r1;
  }
  WRITE_ONCE(*z, r2);
}

P1(int *x, int *y) {
  WRITE_ONCE(*y, 1);
  WRITE_ONCE(*x, 1);
}

exists (0:r0=1 /\ 0:r1=0)
|}

(* One thread writes 70 locations and a second reads two of them: 142
   events, so every row of the statics spans three words. *)
let wide =
  let locs = List.init 70 (Printf.sprintf "x%d") in
  Litmus.parse
    (Printf.sprintf
       "C wide\n\n{ }\n\nP0(%s) {\n%s}\n\nP1(int *x0, int *x69) {\n\
       \  int r0 = READ_ONCE(*x0);\n\
       \  int r1 = READ_ONCE(*x69);\n\
        }\n\n\
        exists (1:r0=1 /\\ 1:r1=0)\n"
       (String.concat ", " (List.map (fun x -> "int *" ^ x) locs))
       (String.concat ""
          (List.map (Printf.sprintf "  WRITE_ONCE(*%s, 1);\n") locs)))

let battery_tests () =
  List.map
    (fun (e : Harness.Battery.entry) ->
      (e.Harness.Battery.name, Harness.Battery.test_of e))
    Harness.Battery.all

let shape_sample () =
  Cpu_ratio.sample_tests 1 @ battery_tests ()
  @ Lazy.force diygen_tests
  @ [ ("shape-deps", shape_deps); ("wide", wide) ]

(* The names of the statics on which a skeleton differs from its
   reference build. *)
let statics_mismatches (sk : Exec.skeleton) (r : Statics_ref.statics) =
  let x = Exec.instantiate sk ~rf:Rel.empty ~co:Rel.empty in
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("events", sk.sk_events = r.events);
      ("po", Rel.equal x.po r.po);
      ("addr", Rel.equal x.addr r.addr);
      ("data", Rel.equal x.data r.data);
      ("ctrl", Rel.equal x.ctrl r.ctrl);
      ("rmw", Rel.equal x.rmw r.rmw);
      ("universe", Rel.Iset.equal x.universe r.universe);
      ("loc", Rel.equal x.loc_r r.loc_r);
      ("int", Rel.equal x.int_r r.int_r);
      ("ext", Rel.equal x.ext_r r.ext_r);
      ("id", Rel.equal x.id_r r.id_r);
      ("po-loc", Rel.equal x.po_loc r.po_loc);
      ("crit", Rel.equal x.crit r.crit);
      ("R", Rel.Iset.equal x.reads r.reads);
      ("W", Rel.Iset.equal x.writes r.writes);
      ("F", Rel.Iset.equal x.fences r.fences);
      ("M", Rel.Iset.equal x.mem r.mem);
      ("IW", Rel.Iset.equal x.init_ws r.init_ws);
      ("co writes", Exec.co_writes sk = r.co_writes);
      ("final registers", sk.sk_final_regs = r.final_regs);
      ("rf choices", sk.sk_rf_choices = r.rf_choices);
    ]

let test_statics_per_shape () =
  let structures = ref 0 and shapes = ref 0 in
  List.iter
    (fun (file, test) ->
      let sks = List.of_seq (Exec.skeletons test) in
      let refs = Statics_ref.structures test in
      Alcotest.(check int)
        (file ^ ": structures, shared vs reference build")
        (List.length refs) (List.length sks);
      List.iteri
        (fun i (sk, r) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: structure %d statics differing from the \
                             reference build" file i)
            [] (statics_mismatches sk r))
        (List.combine sks refs);
      (* shapes built = classes of static_compatible over the structures *)
      let was = Obs.enabled () in
      Obs.set_enabled true;
      Obs.reset ();
      let reps =
        List.map
          (fun sk -> Exec.instantiate sk ~rf:Rel.empty ~co:Rel.empty)
          (List.of_seq (Exec.skeletons test))
      in
      let built =
        Option.value ~default:0 (List.assoc_opt "exec.shapes" (Obs.counters ()))
      in
      Obs.set_enabled was;
      let classes =
        List.fold_left
          (fun classes x ->
            if List.exists (Exec.static_compatible x) classes then classes
            else x :: classes)
          [] reps
      in
      Alcotest.(check int)
        (file ^ ": shapes built = static_compatible classes")
        (List.length classes) built;
      structures := !structures + List.length sks;
      shapes := !shapes + built;
      (* one enumeration: each candidate against the first candidate of
         every structure (a structure's candidates are consecutive and
         share its events array) *)
      let xs = Exec.of_test test in
      let firsts =
        List.fold_left
          (fun acc (x : Exec.t) ->
            match acc with
            | (y : Exec.t) :: _ when y.events == x.events -> acc
            | _ -> x :: acc)
          [] xs
      in
      let bad = ref 0 in
      List.iter
        (fun (x : Exec.t) ->
          List.iter
            (fun (y : Exec.t) ->
              let same = x.shape == y.shape in
              if same <> Exec.static_compatible x y then incr bad)
            firsts)
        xs;
      Alcotest.(check int)
        (file ^ ": candidate pairs where shape identity and \
                 static_compatible disagree")
        0 !bad)
    (shape_sample ());
  Alcotest.(check bool)
    (Printf.sprintf "%d structures share %d shapes" !structures !shapes)
    true
    (!shapes < !structures)

(* lkbench's sat-large pool, read in place: padded diy cycles and the
   budget-breakers. *)
let sat_pool_tests () =
  match
    List.find_opt Sys.file_exists
      [ "../../../lkbench/sat_pool"; "lkbench/sat_pool" ]
  with
  | None -> Alcotest.fail "lkbench/sat_pool not found"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".litmus")
      |> List.sort compare
      |> List.map (fun f ->
             ( f,
               Litmus.parse
                 (Harness.Runner.read_file (Filename.concat dir f)) ))

(* The gate, deadness and the candidate claim, decided on each unbuilt
   structure, equal their definitions over the built skeleton
   ({!Structure_ref}) on every structure of the corpus, the battery, the
   generated tests and the sat-large pool. *)
let test_decisions_reference () =
  let structures = ref 0 and dead = ref 0 and refuted = ref 0 in
  let residues = ref 0 in
  List.iter
    (fun (file, test) ->
      let bad = ref [] in
      Seq.iteri
        (fun i st ->
          incr structures;
          let sk = Exec.skeleton st in
          let cond = Exec.asserted_cond st in
          if Exec.dead st then incr dead;
          (match cond with
          | Known false -> incr refuted
          | Known true -> ()
          | _ -> incr residues);
          List.iter
            (fun (what, same) ->
              if not same then bad := Printf.sprintf "%d %s" i what :: !bad)
            [
              ("gate", cond = Structure_ref.asserted_cond sk);
              ("dead", Exec.dead st = Structure_ref.dead sk);
              ("claim", Exec.claim st = Structure_ref.claim sk);
              ("registers", Exec.structure_regs st = sk.sk_final_regs);
            ])
        (Exec.structures test);
      Alcotest.(check (list string))
        (file ^ ": structures deciding otherwise than the reference")
        [] (List.rev !bad))
    (Cpu_ratio.sample_tests 1 @ battery_tests ()
    @ Lazy.force diygen_tests @ sat_pool_tests ());
  Alcotest.(check bool)
    (Printf.sprintf "%d structures: %d dead, %d refuted, %d residues"
       !structures !dead !refuted !residues)
    true
    (!dead > 100 && !refuted > 100 && !residues > 10)

(* Run the model anyway on every candidate the prefilter rejects: none
   may be consistent, under the native axioms or the cat interpreter —
   the executable form of the soundness argument (an sc-per-location
   cycle violates a constraint of every shipped model). *)
let test_prefilter_soundness () =
  let lk_cat = Lazy.force Cat.lk in
  let rejected = ref 0 in
  List.iter
    (fun (file, test) ->
      Seq.iter
        (fun x ->
          if not (Exec.coherent x) then begin
            incr rejected;
            Alcotest.(check bool)
              (file ^ ": prefilter-rejected candidate fails the LK axioms")
              false (Lkmm.consistent x);
            Alcotest.(check bool)
              (file ^ ": prefilter-rejected candidate fails the cat model")
              false
              (Cat_ref.consistent lk_cat x)
          end)
        (Exec.candidates test))
    (Cpu_ratio.sample_tests 9);
  Alcotest.(check bool) "sample exercises the prefilter" true (!rejected > 20)

let () =
  Alcotest.run "rel_dense"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ops_agree;
            prop_closures_agree;
            prop_rows_agree;
            prop_cyclicity_agrees;
            prop_linear_extensions_agree;
            prop_of_classes_agrees;
          ] );
      ( "end-to-end",
        [
          Alcotest.test_case "corpus sample agreement" `Quick
            test_corpus_agreement;
          Alcotest.test_case "batched vs scalar agreement" `Quick
            test_batched_agreement;
          Alcotest.test_case "shared call = one-model calls" `Quick
            test_shared_agreement;
          Alcotest.test_case "shared call under a tripping budget" `Quick
            test_shared_budget;
          Alcotest.test_case "shared call with a raising model" `Quick
            test_shared_model_error;
          Alcotest.test_case "Oracle.run_all = Oracle.run" `Quick test_run_all;
          Alcotest.test_case "scalar at most 2x its reference ratio" `Slow
            test_scalar_absolute;
          Alcotest.test_case "prefilter soundness" `Quick
            test_prefilter_soundness;
          Alcotest.test_case "fr is rf^-1;co" `Quick test_fr_definition;
          Alcotest.test_case "statics once per shape" `Quick
            test_statics_per_shape;
          Alcotest.test_case "decisions on unbuilt structures" `Quick
            test_decisions_reference;
        ] );
    ]
