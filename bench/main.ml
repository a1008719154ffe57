(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation, each with its shape check.  Speed is measured
   by lkbench, not here.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- quick    # smaller simulation counts

   It exits 1 when any section departs from the paper: a Table 5 shape
   mismatch, an ISSUE or UNSOUND line, a Theorem 1 violation or a
   native/cat disagreement.

   Experiments (see DESIGN.md for the index):
     table3/table4  primitive -> event mappings
     table5         model verdicts vs simulated hardware vs C11
     figures        Figures 2,4,5,6,7,9,10,11,13,14 with explanations
     theorem1       law <=> axiom equivalence sweep
     fig15          the RCU implementation study (Theorem 2) + ablations
     diy_sweep      generated-test sweep: soundness + model comparisons
     c11_delta      LK vs C11 disagreement quantification *)

let quick = Array.exists (fun a -> a = "quick") Sys.argv

let sim_runs = if quick then 2_000 else 20_000
let rcu_runs = if quick then 300 else 1_500

let section title =
  Fmt.pr "@.==================== %s ====================@." title

(* Every departure from the paper a section finds is printed through
   [depart], and any makes the run exit 1. *)
let departures = ref 0

let depart fmt =
  incr departures;
  Fmt.pr fmt

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: primitives and their events                         *)
(* ------------------------------------------------------------------ *)

let tables34 () =
  section "Table 3 & 4: LK primitives and corresponding events";
  let show body =
    let src =
      Printf.sprintf "C t\n{ x=0; }\nP0(int *x) {\n  %s\n}\nexists (x=0)" body
    in
    let test = Litmus.parse src in
    let x = List.hd (Exec.of_test test) in
    let events =
      Array.to_list x.Exec.events
      |> List.filter (fun (e : Exec.Event.t) -> e.tid = 0)
      |> List.map (fun (e : Exec.Event.t) ->
             Printf.sprintf "%s[%s]"
               (Exec.Event.dir_to_string e.dir)
               (Exec.Event.annot_to_string e.annot))
    in
    Fmt.pr "  %-42s %s@." body (String.concat ", " events)
  in
  List.iter show
    [
      "int r1 = READ_ONCE(x);";
      "WRITE_ONCE(x, 1);";
      "int r1 = smp_load_acquire(x);";
      "smp_store_release(x, 1);";
      "smp_rmb();";
      "smp_wmb();";
      "smp_mb();";
      "smp_read_barrier_depends();";
      "int r1 = xchg_relaxed(x, 1);";
      "int r1 = xchg_acquire(x, 1);";
      "int r1 = xchg_release(x, 1);";
      "int r1 = xchg(x, 1);";
      "int r1 = rcu_dereference(x);";
      "rcu_assign_pointer(x, 1);";
      "rcu_read_lock();";
      "rcu_read_unlock();";
      "synchronize_rcu();";
    ]

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section
    (Printf.sprintf
       "Table 5: verdicts vs simulated hardware (%d runs/cell) vs C11"
       sim_runs);
  let rows = Harness.Table5.rows ~runs:sim_runs ~seed:7 () in
  Fmt.pr "%a" Harness.Table5.pp rows;
  (match Harness.Table5.shape_issues ~check_observed:(not quick) rows with
  | [] -> Fmt.pr "@.shape check against the paper's Table 5: OK@."
  | issues ->
      Fmt.pr "@.shape issues:@.";
      List.iter (depart "  %s@.") issues);
  rows

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures () =
  section "Figures 2, 4, 5, 6, 7, 9, 10, 11, 13, 14";
  Fmt.pr "%a" Harness.Figures.pp ();
  match Harness.Figures.issues () with
  | [] -> Fmt.pr "figure verdicts match the paper: OK@."
  | issues -> List.iter (depart "ISSUE: %s@.") issues

(* ------------------------------------------------------------------ *)
(* Theorem 1                                                           *)
(* ------------------------------------------------------------------ *)

let theorem1 () =
  section "Theorem 1: fundamental law <=> Pb + RCU axioms";
  let total = ref 0 and bad = ref 0 in
  List.iter
    (fun (e : Harness.Battery.entry) ->
      List.iter
        (fun x ->
          incr total;
          if not (Lkmm.Rcu.theorem1_holds x) then incr bad)
        (Exec.of_test (Harness.Battery.test_of e)))
    Harness.Battery.all;
  let rng = Random.State.make [| 2018 |] in
  let gen =
    Diygen.sample ~vocabulary:Diygen.Edge.vocabulary ~rng
      ~count:(if quick then 20 else 60)
      4
  in
  List.iter
    (fun t ->
      List.iter
        (fun x ->
          incr total;
          if not (Lkmm.Rcu.theorem1_holds x) then incr bad)
        (Exec.of_test t))
    gen;
  Fmt.pr
    "checked on %d candidate executions (battery + generated, incl. \
     synchronize_rcu edges): %d violations@."
    !total !bad;
  if !bad > 0 then incr departures

(* ------------------------------------------------------------------ *)
(* Figures 15/16: the RCU implementation                               *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  section "Figures 15/16: RCU implementation study (Theorem 2, empirical)";
  let results = Harness.Rcu_study.run_all ~runs:rcu_runs () in
  List.iter (fun r -> Fmt.pr "%a@." Harness.Rcu_study.pp r) results;
  (match Harness.Rcu_study.issues results with
  | [] ->
      Fmt.pr
        "faithful Figure-15 implementation: forbidden outcomes never \
         observed (Theorem 2); broken variants exhibit them@."
  | issues -> List.iter (depart "ISSUE: %s@.") issues);
  results

(* ------------------------------------------------------------------ *)
(* diy sweep + C11 delta                                               *)
(* ------------------------------------------------------------------ *)

let diy_sweep () =
  section "Section 5: systematic test generation sweep";
  let rng = Random.State.make [| 7 |] in
  let tests =
    Diygen.generate ~vocabulary:Diygen.Edge.core_vocabulary 4
    @ Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng
        ~count:(if quick then 30 else 120)
        5
    @ Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng
        ~count:(if quick then 10 else 40)
        6
  in
  let stats =
    Harness.Sweep.classify ~runs:(if quick then 150 else 400) tests
  in
  Fmt.pr "%a@." Harness.Sweep.pp stats;
  (match Harness.Sweep.strength_issues tests with
  | [] -> Fmt.pr "model-strength ordering SC >= TSO >= LK: OK@."
  | issues -> List.iter (depart "ISSUE: %s@.") issues);
  (match stats.Harness.Sweep.unsound with
  | [] -> Fmt.pr "simulator soundness over the sweep: OK@."
  | l -> List.iter (fun (t, a) -> depart "UNSOUND: %s on %s@." t a) l);
  tests

let c11_delta tests =
  section "Section 5.2: LK vs C11 disagreements over the sweep";
  let disag =
    List.filter_map
      (fun t ->
        if not (Models.C11.applicable t) then None
        else
          match Harness.Table5.check t with
          | lk, Some c11 when lk.Exec.Check.verdict <> c11.Exec.Check.verdict
            ->
              Some (t, lk.verdict, c11.verdict)
          | _ -> None)
      tests
  in
  Fmt.pr "%d/%d generated tests distinguish LK from C11@." (List.length disag)
    (List.length tests);
  List.iteri
    (fun i ((t : Litmus.Ast.t), lk, c11) ->
      if i < 10 then
        Fmt.pr "  %-45s LK:%-6s C11:%-6s@." t.name
          (Exec.Check.verdict_to_string lk)
          (Exec.Check.verdict_to_string c11))
    disag

(* ------------------------------------------------------------------ *)
(* Ablation: native vs cat-interpreted model                           *)
(* ------------------------------------------------------------------ *)

let ablation_cat () =
  section "Ablation: native LK model vs cat-interpreted lk.cat";
  let (module Lk_cat : Exec.Check.MODEL) =
    Exec.Oracle.model
      (Cat.to_oracle ~name:"LK(cat)" (Cat.parse Cat.Stdmodels.lk))
      ()
  in
  let mismatches = ref 0 and execs = ref 0 in
  List.iter
    (fun (e : Harness.Battery.entry) ->
      List.iter
        (fun x ->
          incr execs;
          if Lkmm.consistent x <> Lk_cat.consistent x then
            incr mismatches)
        (Exec.of_test (Harness.Battery.test_of e)))
    Harness.Battery.all;
  Fmt.pr "%d executions, %d native/cat disagreements@." !execs !mismatches;
  if !mismatches > 0 then incr departures

(* Model-variant ablations: surgical edits to lk.cat flip exactly the
   verdicts they should (see examples/custom_model.ml). *)
let ablation_variants () =
  section "Ablation: lk.cat variants (no-Alpha, no-ctrl)";
  let replace ~what ~with_ src =
    let rec go acc rest =
      let wl = String.length what and rl = String.length rest in
      if rl < wl then acc ^ rest
      else if String.sub rest 0 wl = what then
        acc ^ with_ ^ String.sub rest wl (rl - wl)
      else go (acc ^ String.make 1 rest.[0]) (String.sub rest 1 (rl - 1))
    in
    go "" src
  in
  let verdict model test =
    Exec.Check.verdict_to_string
      (Exec.Oracle.run (Cat.to_oracle ~name:"v" model) test).Exec.Check.verdict
  in
  let lk = Cat.parse Cat.Stdmodels.lk in
  let no_alpha =
    Cat.parse
      (replace ~what:"let strong-rrdep = rrdep^+ & rb-dep"
         ~with_:"let strong-rrdep = rrdep^+" Cat.Stdmodels.lk)
  in
  let no_ctrl =
    Cat.parse
      (replace ~what:"let rwdep = (dep | ctrl) & (R * W)"
         ~with_:"let rwdep = dep & (R * W)" Cat.Stdmodels.lk)
  in
  let show name =
    let t = Harness.Battery.test_of (Harness.Battery.find name) in
    Fmt.pr "  %-20s LK:%-7s no-Alpha:%-7s no-ctrl:%-7s@." name (verdict lk t)
      (verdict no_alpha t) (verdict no_ctrl t)
  in
  List.iter show [ "MP+wmb+addr"; "LB+ctrl+mb"; "LB+datas"; "MP+wmb+rmb" ]

let () =
  tables34 ();
  ignore (table5 ());
  figures ();
  theorem1 ();
  ignore (fig15 ());
  let tests = diy_sweep () in
  c11_delta tests;
  ablation_cat ();
  ablation_variants ();
  Fmt.pr "@.bench: all experiments complete; departures from the paper: %d@."
    !departures;
  if !departures > 0 then exit 1
