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

let sat_check ?(backend = Exec.Check.Sat) ?(oracle = Lkmm.oracle) t =
  Exec.Oracle.run ~budget:(Exec.Budget.start Exec.Budget.default) ~backend
    oracle t

(* Both native engines evaluate one definition of the LK chain, so
   lk.cat, run by the cat interpreter, is the reference independent of
   it. *)
let lk_cat = lazy (Cat.to_oracle ~name:"LK(cat)" (Lazy.force Cat.lk))

let cat_check t =
  sat_check ~backend:Exec.Check.Enum ~oracle:(Lazy.force lk_cat) t

(* Every corpus test: the symbolic verdict must equal the golden
   manifest verdict, the enumerator's and lk.cat's, with zero
   fallbacks (the native oracle ships a solver) and solver counters
   present. *)
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
          let e = sat_check ~backend:Exec.Check.Enum t in
          Alcotest.(check string) (file ^ " sat = enum")
            (Exec.Check.verdict_to_string e.Exec.Check.verdict)
            (Exec.Check.verdict_to_string r.Exec.Check.verdict);
          Alcotest.(check string) (file ^ " native = lk.cat")
            (Exec.Check.verdict_to_string (cat_check t).Exec.Check.verdict)
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

(* RCU cycles through an rf edge their structure leaves open: a second
   grace-period or critical-section thread writes the value the cycle
   reads, so the read's writer is a CNF variable and the RCU axiom rests
   on rcu-path's support clauses, not on its must-fixpoint (the
   battery's RCU tests fix rf and co by their read values). *)
let rcu_open_rf =
  let gp_writer i =
    Printf.sprintf
      "P%d(int *x, int *y) { WRITE_ONCE(*x, 1); synchronize_rcu(); \
       WRITE_ONCE(*y, 1); }"
      i
  in
  let rscs_2w name first second cond =
    Printf.sprintf
      "C %s\n\
       { }\n\
       P0(int *x, int *y) { rcu_read_lock(); int r1 = READ_ONCE(*%s); int \
       r2 = READ_ONCE(*%s); rcu_read_unlock(); }\n\
       %s\n\
       %s\n\
       exists (%s)\n"
      name first second (gp_writer 1) (gp_writer 2) cond
  in
  (* A cycle of grace-period ('g': read, synchronize_rcu, write) and
     critical-section ('r': read and write in one) threads in the order
     [word], each reading the previous one's write, and a twin of each
     thread of [doubled]. *)
  let cycle word doubled =
    let n = String.length word in
    let thread tid i =
      let a = Printf.sprintf "a%d" i
      and b = Printf.sprintf "a%d" ((i + 1) mod n) in
      let read = Printf.sprintf "int r0 = READ_ONCE(*%s);" a
      and write = Printf.sprintf "WRITE_ONCE(*%s, 1);" b in
      Printf.sprintf "P%d(%s) { %s }" tid
        (if a = b then "int *" ^ a else Printf.sprintf "int *%s, int *%s" a b)
        (if word.[i] = 'g' then
           Printf.sprintf "%s synchronize_rcu(); %s" read write
         else Printf.sprintf "rcu_read_lock(); %s %s rcu_read_unlock();" read
             write)
    in
    let threads = List.init n Fun.id @ doubled in
    Printf.sprintf "C RCU-%s+2w\n{ }\n%s\nexists (%s)\n" word
      (String.concat "\n" (List.mapi thread threads))
      (String.concat " /\\ "
         (List.mapi (fun tid _ -> Printf.sprintf "%d:r0=1" tid) threads))
  in
  List.map Litmus.parse
    [
      rscs_2w "RCU-MP+2w" "y" "x" "0:r1=1 /\\ 0:r2=0";
      rscs_2w "RCU-deferred-free+2w" "x" "y" "0:r1=0 /\\ 0:r2=1";
      cycle "rgrg" [ 3 ];
      (* two grace periods and one critical section: no pairing of
         rules 3-6 and p ; p covers it, so a derivation takes one
         gp-link as a path (gp-link <= p) or merges the two gp-links
         (gp-link ; gp-link <= gp-link, since prop ; gp ; hb^* <= pb) *)
      cycle "ggr" [ 0; 2 ];
      (* every derivation of this violation applies p ; p <= p across an
         open edge, even granting gp-link ; gp-link <= gp-link *)
      cycle "gggrrgrr" [ 0; 4 ];
    ]

(* A fixed generated set: the coherence shapes, the open-rf RCU cycles,
   every size-4 cycle over the core vocabulary, and 300 seeded samples
   each of sizes 5 and 6 over the full one (fences, dependencies,
   release/acquire). *)
let generated =
  lazy
    (let sampled size =
       Diygen.sample ~rng:(Random.State.make [| size |]) ~count:300 size
     in
     coherence_shapes @ rcu_open_rf
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
      let enum =
        List.hd (Exec.Check.run [ Exec.Check.model (module Coherent_only) ] t)
      in
      let v r = Exec.Check.verdict_to_string r.Exec.Check.verdict in
      Alcotest.(check string) (t.Litmus.Ast.name ^ " sat = enum") (v enum)
        (v sat);
      if sat.Exec.Check.verdict = Exec.Check.Allow then incr allow)
    tests;
  (* both verdicts occur, so neither side can pass by answering one *)
  Alcotest.(check bool) "some Allow" true (!allow > 0);
  Alcotest.(check bool) "some Forbid" true (!allow < List.length tests)

(* The native LK oracle on the generated set: the solver's verdict must
   equal the enumerator's and lk.cat's, as on the corpus. *)
let test_generated_agreement () =
  let tests = Lazy.force generated in
  Alcotest.(check bool) "generated set is substantial" true
    (List.length tests > 500);
  List.iter
    (fun (t : Litmus.Ast.t) ->
      let v r = Exec.Check.verdict_to_string r.Exec.Check.verdict in
      let r = sat_check t and e = sat_check ~backend:Exec.Check.Enum t in
      Alcotest.(check string) (t.Litmus.Ast.name ^ " sat = enum") (v e) (v r);
      Alcotest.(check string) (t.Litmus.Ast.name ^ " native = lk.cat")
        (v (cat_check t)) (v r))
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

(* lkbench's sat-large pool: diy cycles of sizes 6 and 7 padded with
   two bystander writers (n ≈ 20–30 events), whose golden verdicts come
   from uncapped batch enumeration, and the scaled budget-breakers,
   decided by construction.  Read in place, never written. *)
let sat_pool () =
  match
    List.find_opt Sys.file_exists
      [ "../../../lkbench/sat_pool"; "lkbench/sat_pool" ]
  with
  | None -> Alcotest.fail "lkbench/sat_pool not found"
  | Some dir ->
      Harness.Runner.read_file (Filename.concat dir "POOL")
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             if line = "" || line.[0] = '#' then None
             else
               match String.split_on_char ' ' line with
               | [ file; verdict; origin ] ->
                   Some
                     ( file,
                       verdict,
                       origin,
                       Litmus.parse
                         (Harness.Runner.read_file (Filename.concat dir file))
                     )
               | _ -> Alcotest.failf "bad POOL line: %s" line)

let test_pool_agreement () =
  let pool = sat_pool () in
  Alcotest.(check int) "padded cycles with batch verdicts" 22
    (List.length (List.filter (fun (_, _, o, _) -> o = "batch") pool));
  List.iter
    (fun (file, golden, origin, t) ->
      Alcotest.(check string)
        (Printf.sprintf "%s sat = golden (%s)" file origin)
        golden
        (Exec.Check.verdict_to_string (sat_check t).Exec.Check.verdict))
    pool

(* The paper battery (Table 5 and the extras): every test's golden LK
   verdict under the SAT backend, with no enumerative fallback — the
   RCU tests among them reach the encoding of rcu-path. *)
let test_battery_agreement () =
  Alcotest.(check int) "battery size" 48 (List.length Harness.Battery.all);
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let r = sat_check (Harness.Battery.test_of e) in
      Alcotest.(check string)
        (e.Harness.Battery.name ^ " sat = golden")
        (Exec.Check.verdict_to_string e.Harness.Battery.lk)
        (Exec.Check.verdict_to_string r.Exec.Check.verdict);
      Alcotest.(check bool)
        (e.Harness.Battery.name ^ " no fallback")
        false
        (match r.Exec.Check.sat with
        | Some s -> s.Exec.Check.fallback
        | None -> true))
    Harness.Battery.all

(* The CNF the main pass hands the solver, summed over the corpus and
   the pool: a deterministic guard against re-inflating the encoding.
   The eager n × n encoding (every entry of every derived relation a
   variable with its support clauses, closures over the cycle core)
   took 11,809 variables and 33,430 clauses here (corpus 3,038 / 7,142;
   pool 8,771 / 26,288); the demand-driven one takes the figures
   pinned below. *)
let test_cnf_ceiling () =
  let tests =
    corpus_tests () @ List.map (fun (_, _, _, t) -> t) (sat_pool ())
  in
  let (), count =
    with_counters (fun () -> List.iter (fun t -> ignore (sat_check t)) tests)
  in
  let vars = count "solve.vars" and clauses = count "solve.clauses" in
  Alcotest.(check bool) (Printf.sprintf "%d variables <= ceiling" vars) true
    (vars <= 2678);
  Alcotest.(check bool) (Printf.sprintf "%d clauses <= ceiling" clauses) true
    (clauses <= 10087)

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
   leaves to the solver: the SAT verdict must equal the enumerator's,
   and the counters must show the gate deciding as claimed. *)
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
          let e = sat_check ~backend:Exec.Check.Enum t in
          Alcotest.(check string) (name ^ ": sat = enum")
            (Exec.Check.verdict_to_string e.Exec.Check.verdict)
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
  let e = sat_check ~backend:Exec.Check.Enum mp in
  Alcotest.(check string) "MP sat = enum"
    (Exec.Check.verdict_to_string e.Exec.Check.verdict)
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

(* What a verdict reports and the gate must not change; candidates of
   two enumerations compare by events and witness. *)
let exec_key (x : Exec.t) = (x.events, Rel.to_list x.rf, Rel.to_list x.co)

let verdict_key (r : Exec.Check.result) =
  ( r.verdict,
    r.n_matching,
    Option.map exec_key r.witness,
    Option.map exec_key r.counterexample,
    List.map Exec.Explain.to_string r.explanations )

(* The verdict over every candidate, {!Exec.Check.run}'s definition
   written out with the model and no prefilter: the
   verdict, [n_matching], the first consistent matching candidate as
   the witness and, with an explainer and a Forbid, the first
   condition-satisfying candidate the model rejects (a coherent one
   first, else an incoherent one) with its explanations. *)
let every_candidate ?explainer (module M : Exec.Check.MODEL)
    (t : Litmus.Ast.t) =
  let asserted x =
    Exec.satisfies_cond x <> (t.Litmus.Ast.quant = Litmus.Ast.Q_forall)
  in
  let matching = ref 0 and witness = ref None in
  let rejected = ref None and incoherent = ref None in
  let first r x = if Option.is_none !r then r := Some x in
  Seq.iter
    (fun x ->
      if asserted x then
        if not (Exec.coherent x) then first incoherent x
        else if M.consistent x then begin
          incr matching;
          first witness x
        end
        else first rejected x)
    (Exec.candidates t);
  let cex =
    match explainer with
    | Some _ when !matching = 0 ->
        if Option.is_some !rejected then !rejected else !incoherent
    | _ -> None
  in
  ( (if !matching > 0 then Exec.Check.Allow else Exec.Check.Forbid),
    !matching,
    Option.map exec_key !witness,
    Option.map exec_key cex,
    match (explainer, cex) with
    | Some explain, Some x -> List.map Exec.Explain.to_string (explain x)
    | _ -> [] )

(* The gate changes no verdict: over the corpus, the battery and the
   generated set, each under its own quantifier and under [forall]
   (the gate refutes on the negated condition there), native LK, lk.cat
   and C11 on the enumerator report from the verdict stream what the
   every-candidate definition reports — verdict,
   [n_matching], witness, counterexample and explanations — while the
   gate refutes some structures and leaves others open. *)
let test_gate_agreement () =
  let models =
    List.map
      (fun name ->
        let m = Harness.Model_table.find name in
        (name, m.oracle, Harness.Model_table.explainer m))
      [ "lk"; "lk-cat"; "c11" ]
  in
  let tests =
    let base =
      corpus_tests ()
      @ List.map Harness.Battery.test_of Harness.Battery.all
      @ Lazy.force generated
    in
    base
    @ List.map
        (fun (t : Litmus.Ast.t) -> { t with quant = Litmus.Ast.Q_forall })
        base
  in
  let (), count =
    with_counters (fun () ->
        List.iter
          (fun (t : Litmus.Ast.t) ->
            List.iter
              (fun (name, (o : Exec.Oracle.t), explainer) ->
                if name <> "c11" || Models.C11.applicable t then begin
                  let scalar = Exec.Oracle.model o () in
                  let r =
                    List.hd
                      (Exec.Check.run [ Exec.Check.model ~explainer scalar ] t)
                  in
                  if verdict_key r <> every_candidate ~explainer scalar t then
                    Alcotest.failf
                      "%s (%s) under %s: the verdict stream disagrees with \
                       every candidate"
                      t.Litmus.Ast.name
                      (Litmus.Pp.quant_to_string t.Litmus.Ast.quant)
                      name
                end)
              models)
          tests)
  in
  let refuted = count "exec.cond_refuted"
  and structures = count "exec.structures" in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d structures refuted" refuted structures)
    true
    (refuted > 0 && refuted < structures)

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
  (* the enumerator trips the default candidate cap on both *)
  expect_unknown "big-allow enum" (sat_check ~backend:Exec.Check.Enum big_allow);
  expect_unknown "big-forbid enum"
    (sat_check ~backend:Exec.Check.Enum big_forbid);
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

(* ------------------------------------------------------------------ *)
(* Sym against Rel under every assignment                              *)
(* ------------------------------------------------------------------ *)

module Sym = Exec.Solve.Sym

(* A leaf entry: statically false, statically true, or leaf variable
   [i]. *)
type entry = Ef | Et | Ev of int

type expr =
  | Leaf of int
  | Union of expr * expr
  | Inter of expr * expr
  | Seq of expr * expr
  | Inverse of expr
  | Plus of expr
  | Star of expr
  | Opt of expr
  | Inter_const of expr * (int * int) list
  | Diff_const of expr * (int * int) list

(* [n] events, [nvars] leaf variables, up to three leaf relations and
   one expression over them. *)
type sym_case = {
  n : int;
  nvars : int;
  leaves : entry array array array;
  expr : expr;
}

let gen_sym_case =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    int_range 1 6 >>= fun nvars ->
    int_range 1 3 >>= fun nleaves ->
    let entry =
      frequency
        [
          (3, return Ef);
          (1, return Et);
          (3, map (fun i -> Ev i) (int_bound (nvars - 1)));
        ]
    in
    let leaf = map (fun i -> Leaf i) (int_bound (nleaves - 1)) in
    let const =
      list_size (int_bound (n * n))
        (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    let rec expr depth =
      if depth = 0 then leaf
      else
        let sub = expr (depth - 1) in
        frequency
          [
            (2, leaf);
            (2, map2 (fun a b -> Union (a, b)) sub sub);
            (2, map2 (fun a b -> Inter (a, b)) sub sub);
            (3, map2 (fun a b -> Seq (a, b)) sub sub);
            (1, map (fun a -> Inverse a) sub);
            (2, map (fun a -> Plus a) sub);
            (1, map (fun a -> Star a) sub);
            (1, map (fun a -> Opt a) sub);
            (1, map2 (fun a r -> Inter_const (a, r)) sub const);
            (1, map2 (fun a r -> Diff_const (a, r)) sub const);
          ]
    in
    array_repeat nleaves (array_repeat n (array_repeat n entry))
    >>= fun leaves ->
    expr 4 >|= fun expr -> { n; nvars; leaves; expr })

let print_sym_case c =
  let pairs r =
    String.concat " " (List.map (fun (x, y) -> Printf.sprintf "%d%d" x y) r)
  in
  let rec pp = function
    | Leaf i -> Printf.sprintf "l%d" i
    | Union (a, b) -> Printf.sprintf "(%s | %s)" (pp a) (pp b)
    | Inter (a, b) -> Printf.sprintf "(%s & %s)" (pp a) (pp b)
    | Seq (a, b) -> Printf.sprintf "(%s ; %s)" (pp a) (pp b)
    | Inverse a -> Printf.sprintf "%s^-1" (pp a)
    | Plus a -> Printf.sprintf "%s+" (pp a)
    | Star a -> Printf.sprintf "%s*" (pp a)
    | Opt a -> Printf.sprintf "%s?" (pp a)
    | Inter_const (a, r) -> Printf.sprintf "(%s & {%s})" (pp a) (pairs r)
    | Diff_const (a, r) -> Printf.sprintf "(%s \\ {%s})" (pp a) (pairs r)
  in
  let leaf tbl =
    String.concat "/"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat ""
                (Array.to_list
                   (Array.map
                      (function Ef -> "." | Et -> "1" | Ev i -> string_of_int i)
                      row)))
            tbl))
  in
  Printf.sprintf "n=%d vars=%d leaves=[%s] expr=%s" c.n c.nvars
    (String.concat "; " (Array.to_list (Array.map leaf c.leaves)))
    (pp c.expr)

let arb_sym_case = QCheck.make ~print:print_sym_case gen_sym_case

(* The relation [c.expr] denotes when leaf variable [i] is [sigma.(i)]. *)
let rel_eval c sigma =
  let universe = Rel.Iset.of_range 0 (c.n - 1) in
  let rec go = function
    | Leaf i ->
        Rel.init c.n (fun x y ->
            match c.leaves.(i).(x).(y) with
            | Ef -> false
            | Et -> true
            | Ev v -> sigma.(v))
    | Union (a, b) -> Rel.union (go a) (go b)
    | Inter (a, b) -> Rel.inter (go a) (go b)
    | Seq (a, b) -> Rel.seq (go a) (go b)
    | Inverse a -> Rel.inverse (go a)
    | Plus a -> Rel.transitive_closure (go a)
    | Star a -> Rel.reflexive_transitive_closure ~universe (go a)
    | Opt a -> Rel.reflexive_closure ~universe (go a)
    | Inter_const (a, r) -> Rel.inter (go a) (Rel.of_list r)
    | Diff_const (a, r) -> Rel.diff (go a) (Rel.of_list r)
  in
  go c.expr

(* A fresh encoding of [c.expr]: the solver context, the leaf variables
   and the symbolic relation. *)
let sym_encode c =
  let ctx = { Exec.Solve.s = Sat.Solver.create (); n = c.n } in
  let vars =
    Array.init c.nvars (fun _ -> Exec.Solve.L (Sat.Solver.new_var ctx.s))
  in
  let leaf tbl =
    let pairs keep = Rel.init c.n (fun x y -> keep tbl.(x).(y)) in
    Sym.leaf ctx
      ~may:(pairs (function Ef -> false | Et | Ev _ -> true))
      ~must:(pairs (function Et -> true | Ef | Ev _ -> false))
      (fun x y ->
        match tbl.(x).(y) with Ev v -> vars.(v) | Ef | Et -> assert false)
  in
  let rec go = function
    | Leaf i -> leaf c.leaves.(i)
    | Union (a, b) -> Sym.union ctx (go a) (go b)
    | Inter (a, b) -> Sym.inter ctx (go a) (go b)
    | Seq (a, b) -> Sym.seq ctx (go a) (go b)
    | Inverse a -> Sym.inverse (go a)
    | Plus a -> Sym.plus ctx (go a)
    | Star a -> Sym.star ctx (go a)
    | Opt a -> Sym.opt (go a)
    | Inter_const (a, r) -> Sym.inter_const (go a) (Rel.of_list r)
    | Diff_const (a, r) -> Sym.diff_const (go a) (Rel.of_list r)
  in
  (ctx, vars, go c.expr)

(* For every assignment sigma of the leaf variables: the projections
   bracket the relation sigma gives (must ⊆ it ⊆ may), and the CNF with
   the leaves fixed to sigma and an assertion applied is satisfiable
   iff that relation passes the matching check. *)
let prop_sym_agrees_with_rel c =
  let _, _, s = sym_encode c in
  let may = Sym.may s and must = Sym.must s in
  let checks =
    [
      (Sym.assert_acyclic, Rel.is_acyclic);
      (Sym.assert_irreflexive, Rel.is_irreflexive);
      (Sym.assert_empty, Rel.is_empty);
    ]
  in
  List.for_all
    (fun bits ->
      let sigma = Array.init c.nvars (fun i -> bits land (1 lsl i) <> 0) in
      let r = rel_eval c sigma in
      Rel.subset must r && Rel.subset r may
      && List.for_all
           (fun (assert_, holds) ->
             let ctx, vars, s = sym_encode c in
             assert_ ctx s;
             Array.iteri
               (fun i v ->
                 Exec.Solve.clause ctx
                   [ (if sigma.(i) then v else Exec.Solve.neg v) ])
               vars;
             Sat.Solver.solve ctx.Exec.Solve.s = Sat.Solver.Sat = holds r)
           checks)
    (List.init (1 lsl c.nvars) Fun.id)

let sym_cases =
  [
    QCheck_alcotest.to_alcotest ~long:false
      (QCheck.Test.make ~count:300
         ~name:"Sym brackets Rel under every assignment" arb_sym_case
         prop_sym_agrees_with_rel);
  ]

let () =
  Alcotest.run "sat"
    [
      ("cdcl-vs-dpll", qcheck_cases);
      ("sym-vs-rel", sym_cases);
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
          Alcotest.test_case "paper battery sat = golden" `Quick
            test_battery_agreement;
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
          Alcotest.test_case "verdict stream = every candidate" `Slow
            test_gate_agreement;
        ] );
      ( "sat-large pool",
        [
          Alcotest.test_case "sat agrees with the golden verdicts" `Quick
            test_pool_agreement;
          Alcotest.test_case "CNF ceiling over corpus and pool" `Slow
            test_cnf_ceiling;
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
