(* Tests for Harness.Shrink: seeded known-bad tests must shrink
   deterministically to a fixed-point reproducer that still trips the
   same oracle — a verdict mismatch, a lint error, and a crashing
   worker (injected, exercising the pool-isolated oracle path). *)

module R = Harness.Runner
module S = Harness.Shrink
module P = Harness.Pool
module B = Exec.Budget
module Ast = Litmus.Ast

let limits = B.limits ~timeout:5.0 ~max_candidates:50_000 ()
let oracle = Lkmm.oracle

let parse name = Litmus.parse (Harness.Battery.find name).Harness.Battery.source

(* ---- structural helpers ------------------------------------------- *)

let test_candidates_shrink () =
  let t = parse "LB+ctrl+mb" in
  let cs = S.candidates t in
  Alcotest.(check bool) "proposals exist" true (cs <> []);
  List.iter
    (fun t' ->
      Alcotest.(check bool) "every proposal strictly smaller" true
        (S.size t' < S.size t))
    cs

let test_drop_thread_remaps_condition () =
  let t = parse "LB" in
  (* LB: P0 observes 0:r1, P1 observes 1:r2 *)
  let t' = S.drop_thread t 0 in
  Alcotest.(check int) "one thread left" 1 (Array.length t'.Ast.threads);
  let rec atoms = function
    | Ast.Atom a -> [ a ]
    | Ast.Not c -> atoms c
    | Ast.And (a, b) | Ast.Or (a, b) -> atoms a @ atoms b
    | Ast.Ctrue -> []
  in
  (* the observer of dropped P0 is gone; P1's observer now points at
     thread 0 *)
  match atoms t'.Ast.cond with
  | [ Ast.Reg_eq (0, "r2", Ast.VInt 1) ] -> ()
  | _ -> Alcotest.failf "bad remap: %s" (Litmus.to_string t')

(* ---- verdict-mismatch oracle -------------------------------------- *)

(* A seeded FAIL: LB+ctrl+mb is Forbid under LK; expecting Allow makes
   every check a deterministic mismatch. *)
let mismatch_check t =
  R.run_item ~limits ~oracle
    { R.id = t.Ast.name; source = `Ast t; expected = Some Exec.Check.Allow }

let test_mismatch_shrinks_to_fixed_point () =
  let t = parse "LB+ctrl+mb" in
  let base = mismatch_check t in
  Alcotest.(check string) "seed trips" "fail:Allow->Forbid"
    (S.fingerprint base);
  let o = S.shrink_entry ~check:mismatch_check base t in
  Alcotest.(check bool) "strictly smaller" true
    (o.S.final_size < o.S.initial_size);
  Alcotest.(check string) "reproducer still trips" "fail:Allow->Forbid"
    (S.fingerprint (mismatch_check o.S.reduced));
  (* fixed point: shrinking the reproducer again does nothing *)
  let o2 = S.shrink_entry ~check:mismatch_check base o.S.reduced in
  Alcotest.(check int) "no further reduction" 0 o2.S.steps;
  (* deterministic: an independent run lands on the same reproducer *)
  let o3 = S.shrink_entry ~check:mismatch_check base t in
  Alcotest.(check string) "deterministic" (Litmus.to_string o.S.reduced)
    (Litmus.to_string o3.S.reduced);
  (* the reproducer round-trips through concrete syntax and still trips *)
  let reparsed = Litmus.parse (Litmus.to_string o.S.reduced) in
  Alcotest.(check string) "round-tripped reproducer trips"
    "fail:Allow->Forbid"
    (S.fingerprint (mismatch_check reparsed))

(* ---- lint-error oracle -------------------------------------------- *)

let lint_seed =
  {|C lint-seed
{ x=0; y=0; }
P0(int *x, int *y) {
  WRITE_ONCE(*y, 1);
  rcu_read_lock();
  WRITE_ONCE(*x, 1);
  int r9 = READ_ONCE(*y);
}
P1(int *x, int *y) {
  WRITE_ONCE(*y, 2);
  int r1 = READ_ONCE(*x);
}
exists (1:r1=1 /\ y=2)|}

let lint_check t =
  R.run_item ~limits ~oracle
    { R.id = t.Ast.name; source = `Ast t; expected = None }

let test_lint_error_shrinks () =
  let t = Litmus.parse lint_seed in
  let base = lint_check t in
  Alcotest.(check string) "seed trips lint" "error:lint"
    (S.fingerprint base);
  let o = S.shrink_entry ~check:lint_check base t in
  Alcotest.(check string) "reproducer still a lint error" "error:lint"
    (S.fingerprint (lint_check o.S.reduced));
  Alcotest.(check bool) "strictly smaller" true
    (o.S.final_size < o.S.initial_size);
  (* the unbalanced lock is the failure; it must survive the shrink *)
  let has_lock =
    Array.exists
      (List.exists (fun i -> i = Ast.Fence Ast.F_rcu_lock))
      o.S.reduced.Ast.threads
  in
  Alcotest.(check bool) "rcu_read_lock survives" true has_lock;
  let o2 = S.shrink_entry ~check:lint_check base o.S.reduced in
  Alcotest.(check int) "fixed point" 0 o2.S.steps

(* ---- crash oracle (pool-isolated) --------------------------------- *)

(* A "crashing mutant" in the fuzz_smoke spirit: checking any test that
   touches the global [boom] kills the worker with SIGSEGV.  The
   shrinker must preserve the crash, so the boom access survives while
   the unrelated threads, instructions and condition clauses go. *)
let crash_seed =
  {|C crash-seed
{ x=0; y=0; boom=0; }
P0(int *x, int *boom) {
  WRITE_ONCE(*x, 1);
  WRITE_ONCE(*boom, 1);
  int r0 = READ_ONCE(*x);
}
P1(int *x, int *y) {
  WRITE_ONCE(*x, 2);
  smp_mb();
  WRITE_ONCE(*y, 1);
}
P2(int *y) {
  int r1 = READ_ONCE(*y);
}
exists ((0:r0=1 /\ 2:r1=1) \/ x=2)|}

let crashy_worker (it : R.item) =
  let t =
    match it.R.source with
    | `Ast t -> t
    | `Text s -> Litmus.parse s
    | `File p -> Litmus.parse (R.read_file p)
  in
  if List.mem "boom" (Ast.globals t) then
    Unix.kill (Unix.getpid ()) Sys.sigsegv;
  R.run_item ~limits ~oracle it

let crash_check t =
  S.isolated_check
    ~config:{ P.default with P.limits = limits }
    ~worker:crashy_worker ~oracle t

let test_crash_shrinks_in_isolation () =
  let t = Litmus.parse crash_seed in
  let base = crash_check t in
  Alcotest.(check string) "seed crashes the worker" "crash:SIGSEGV"
    (S.fingerprint base);
  let o = S.shrink_entry ~check:crash_check base t in
  Alcotest.(check string) "reproducer still crashes" "crash:SIGSEGV"
    (S.fingerprint (crash_check o.S.reduced));
  Alcotest.(check bool) "strictly smaller" true
    (o.S.final_size < o.S.initial_size);
  Alcotest.(check bool) "the boom access survives" true
    (List.mem "boom" (Ast.globals o.S.reduced));
  (* everything unrelated to the crash went: the crash does not need a
     second thread *)
  Alcotest.(check int) "single thread left" 1
    (Array.length o.S.reduced.Ast.threads);
  let o3 = S.shrink_entry ~check:crash_check base t in
  Alcotest.(check string) "deterministic" (Litmus.to_string o.S.reduced)
    (Litmus.to_string o3.S.reduced)

(* ---- reproducer emission ------------------------------------------ *)

let test_write_reproducer () =
  let t = parse "SB" in
  let path = Filename.temp_file "shrink_repro" ".litmus" in
  S.write_reproducer path t;
  let back = Litmus.parse (R.read_file path) in
  Sys.remove path;
  Alcotest.(check string) "round trip through the file" t.Ast.name
    back.Ast.name

let () =
  Alcotest.run "shrink"
    [
      ( "structure",
        [
          Alcotest.test_case "candidates shrink" `Quick test_candidates_shrink;
          Alcotest.test_case "thread drop remaps cond" `Quick
            test_drop_thread_remaps_condition;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "verdict mismatch" `Slow
            test_mismatch_shrinks_to_fixed_point;
          Alcotest.test_case "lint error" `Quick test_lint_error_shrinks;
          Alcotest.test_case "crash (isolated)" `Slow
            test_crash_shrinks_in_isolation;
          Alcotest.test_case "write reproducer" `Quick test_write_reproducer;
        ] );
    ]
