(* Tests for the LK memory model: the relations of Figure 8 one by one,
   the axioms of Figure 3, the RCU machinery of Figure 12, the fundamental
   law (Section 4.1) with Theorem 1, and every verdict of Table 5 and the
   figures. *)

module E = Exec.Event

let parse = Litmus.parse
let battery name = Harness.Battery.test_of (Harness.Battery.find name)
let verdict test = (Lkmm.check test).Exec.Check.verdict
let allow = Exec.Check.Allow
let forbid = Exec.Check.Forbid

(* A consistent-or-not execution of a test matching its condition (the
   intended weak execution), with its relation context. *)
let weak_ctx test =
  match List.filter Exec.satisfies_cond (Exec.of_test test) with
  | x :: _ -> Lkmm.Relations.make x
  | [] -> Alcotest.fail "no execution matches the condition"

let find_event (c : Lkmm.Relations.ctx) p =
  match Array.to_list c.x.Exec.events |> List.filter p with
  | [ e ] -> e.E.id
  | _ -> Alcotest.fail "event not unique"

(* ------------------------------------------------------------------ *)
(* Figure 8, relation by relation                                      *)
(* ------------------------------------------------------------------ *)

let test_rwdep_ctrl () =
  (* Figure 4: the ctrl edge from the read to the write is in rwdep,
     hence in ppo *)
  let c = weak_ctx (battery "LB+ctrl+mb") in
  let r = find_event c (fun e -> E.is_read e && e.tid = 0) in
  let w = find_event c (fun e -> E.is_write e && e.tid = 0) in
  Alcotest.(check bool) "ctrl in rwdep" true (Rel.mem r w c.rwdep);
  Alcotest.(check bool) "rwdep in ppo" true (Rel.mem r w c.ppo)

let test_wmb_orders_writes_only () =
  let c = weak_ctx (battery "MP+wmb+rmb") in
  let w1 = find_event c (fun e -> E.is_write e && e.loc = "x" && e.tid = 0) in
  let w2 = find_event c (fun e -> E.is_write e && e.loc = "y" && e.tid = 0) in
  Alcotest.(check bool) "wmb pairs the writes" true (Rel.mem w1 w2 c.wmb);
  (* and wmb is a cumul-fence but not A-cumulative *)
  Alcotest.(check bool) "wmb in cumul-fence" true
    (Rel.mem w1 w2 c.cumul_fence)

let test_rmb_orders_reads_only () =
  let c = weak_ctx (battery "MP+wmb+rmb") in
  let r1 = find_event c (fun e -> E.is_read e && e.loc = "y") in
  let r2 = find_event c (fun e -> E.is_read e && e.loc = "x") in
  Alcotest.(check bool) "rmb pairs the reads" true (Rel.mem r1 r2 c.rmb);
  Alcotest.(check bool) "rmb in fence in ppo" true (Rel.mem r1 r2 c.ppo)

let test_mb_orders_everything () =
  let c = weak_ctx (battery "SB+mbs") in
  let w = find_event c (fun e -> E.is_write e && e.tid = 0) in
  let r = find_event c (fun e -> E.is_read e && e.tid = 0) in
  Alcotest.(check bool) "mb pairs write-read" true (Rel.mem w r c.mb);
  Alcotest.(check bool) "mb is strong" true (Rel.mem w r c.strong_fence)

let test_a_cumulativity_of_release () =
  (* Figure 5, Section 3.2.3: (a, c) in cumul-fence via A-cumul(po-rel) *)
  let c = weak_ctx (battery "WRC+po-rel+rmb") in
  let a = find_event c (fun e -> E.is_write e && e.loc = "x" && e.tid = 0) in
  let cw = find_event c (fun e -> E.is_write e && (not (E.is_init e)) && e.loc = "y") in
  Alcotest.(check bool) "A-cumul extends to the external write" true
    (Rel.mem a cw c.cumul_fence)

let test_prop_of_figure2 () =
  (* Section 3.2.3: in Figure 2, d (reading x=0) is overwritten by a, so
     (d, b) in prop *)
  let c = weak_ctx (battery "MP+wmb+rmb") in
  let d = find_event c (fun e -> E.is_read e && e.loc = "x") in
  let b = find_event c (fun e -> E.is_write e && e.loc = "y" && e.tid = 0) in
  Alcotest.(check bool) "(d,b) in prop" true (Rel.mem d b c.prop)

let test_hb_cycle_figure4 () =
  let c = weak_ctx (battery "LB+ctrl+mb") in
  Alcotest.(check bool) "hb is cyclic" false (Rel.is_acyclic c.hb)

let test_pb_cycle_figure6 () =
  let c = weak_ctx (battery "SB+mbs") in
  Alcotest.(check bool) "hb acyclic here" true (Rel.is_acyclic c.hb);
  Alcotest.(check bool) "pb is cyclic" false (Rel.is_acyclic c.pb)

let test_pb_cycle_figure7 () =
  let c = weak_ctx (battery "PeterZ") in
  Alcotest.(check bool) "pb is cyclic" false (Rel.is_acyclic c.pb)

let test_rrdep_prefix_figure9 () =
  (* (c, e) in ppo via rrdep* ; acq-po *)
  let c = weak_ctx (battery "MP+wmb+addr-acq") in
  let rc = find_event c (fun e -> E.is_read e && e.loc = "y") in
  let re = find_event c (fun e -> E.is_read e && e.loc = "x") in
  Alcotest.(check bool) "(c,e) in ppo" true (Rel.mem rc re c.ppo)

let test_strong_rrdep_needs_barrier () =
  (* address dependency alone is not in to-r (Alpha), but with the
     rb-dep fence of rcu_dereference it is *)
  let without = weak_ctx (battery "MP+wmb+addr") in
  let with_ = weak_ctx (battery "MP+wmb+rcu-deref") in
  let deps c = Rel.inter c.Lkmm.Relations.rrdep (Rel.cartesian c.Lkmm.Relations.x.Exec.reads c.Lkmm.Relations.x.Exec.reads) in
  Alcotest.(check bool) "rrdep present in both" true
    ((not (Rel.is_empty (deps without))) && not (Rel.is_empty (deps with_)));
  Alcotest.(check bool) "strong-rrdep only with the barrier" true
    (Rel.is_empty without.Lkmm.Relations.strong_rrdep
    && not (Rel.is_empty with_.Lkmm.Relations.strong_rrdep))

let test_rfi_rel_acq () =
  let t =
    parse
      {|C rra
{ x=0; y=0; }
P0(int *x, int *y) {
  WRITE_ONCE(x, 1);
  smp_store_release(y, 1);
  int r1 = smp_load_acquire(y);
  WRITE_ONCE(z, r1);
}
exists (0:r1=1)|}
  in
  let c = weak_ctx t in
  Alcotest.(check bool) "internal release-to-acquire ordering" false
    (Rel.is_empty c.rfi_rel_acq)

let test_gp_is_strong_fence () =
  let c = weak_ctx (battery "SB+mb+sync") in
  let w = find_event c (fun e -> E.is_write e && e.tid = 1 && e.loc = "y") in
  let r = find_event c (fun e -> E.is_read e && e.tid = 1) in
  Alcotest.(check bool) "gp pairs events around synchronize_rcu" true
    (Rel.mem w r c.gp);
  Alcotest.(check bool) "gp is strong" true (Rel.mem w r c.strong_fence)

(* ------------------------------------------------------------------ *)
(* Axioms (Figure 3)                                                   *)
(* ------------------------------------------------------------------ *)

let test_axiom_violations () =
  let check name expected_axiom =
    let c = weak_ctx (battery name) in
    let violated = Lkmm.Axioms.violations c in
    Alcotest.(check bool)
      (name ^ " violates " ^ Lkmm.Axioms.to_string expected_axiom)
      true
      (List.mem expected_axiom violated)
  in
  check "CoRR" Lkmm.Axioms.Scpv;
  check "CoWW" Lkmm.Axioms.Scpv;
  check "Atomicity" Lkmm.Axioms.At;
  check "LB+ctrl+mb" Lkmm.Axioms.Hb;
  check "MP+wmb+rmb" Lkmm.Axioms.Hb;
  check "WRC+po-rel+rmb" Lkmm.Axioms.Hb;
  check "SB+mbs" Lkmm.Axioms.Pb;
  check "PeterZ" Lkmm.Axioms.Pb;
  check "RWC+mbs" Lkmm.Axioms.Pb;
  check "RCU-MP" Lkmm.Axioms.Rcu;
  check "RCU-deferred-free" Lkmm.Axioms.Rcu

let test_allowed_execution_consistent () =
  (* MP's weak execution is consistent without fences *)
  let c = weak_ctx (battery "MP") in
  Alcotest.(check (list string)) "no violations" []
    (List.map Lkmm.Axioms.to_string (Lkmm.Axioms.violations c))

(* ------------------------------------------------------------------ *)
(* Table 5 + battery verdicts                                          *)
(* ------------------------------------------------------------------ *)

let test_battery_verdicts () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      Alcotest.(check bool)
        (e.name ^ " verdict matches expectation")
        true
        (verdict (Harness.Battery.test_of e) = e.lk))
    Harness.Battery.all

(* ------------------------------------------------------------------ *)
(* RCU: crit, nesting, law, Theorem 1                                  *)
(* ------------------------------------------------------------------ *)

let test_crit_matching () =
  let t =
    parse
      {|C nest
{ x=0; }
P0(int *x) {
  rcu_read_lock();
  rcu_read_lock();
  int r1 = READ_ONCE(x);
  rcu_read_unlock();
  rcu_read_unlock();
}
exists (0:r1=0)|}
  in
  let x = List.hd (Exec.of_test t) in
  Alcotest.(check int) "one outermost critical section" 1
    (Rel.cardinal x.Exec.crit);
  Rel.iter
    (fun l u ->
      Alcotest.(check bool) "outermost lock to outermost unlock" true
        (x.Exec.events.(l).E.annot = E.Rcu_lock
        && x.Exec.events.(u).E.annot = E.Rcu_unlock
        && (* the outermost unlock is the po-last one *)
        not (Rel.exists (fun a _ -> a = u) x.Exec.po)))
    x.Exec.crit

let test_unbalanced_lock_ignored () =
  let t =
    parse
      "C ub\n{ x=0; }\nP0(int *x) { rcu_read_unlock(); rcu_read_lock(); }\nexists (x=0)"
  in
  let x = List.hd (Exec.of_test t) in
  Alcotest.(check int) "no matched section" 0 (Rel.cardinal x.Exec.crit)

let test_rcu_counting_rule () =
  (* the rule of thumb (Section 4.2): forbidden iff #GPs >= #RSCSes in
     the cycle — two RSCSes vs one GP is allowed, two vs two forbidden *)
  Alcotest.(check bool) "2 rscs vs 1 gp allowed" true
    (verdict (battery "RCU+2rscs+1gp") = allow);
  Alcotest.(check bool) "2 rscs vs 2 gps forbidden" true
    (verdict (battery "RCU+2rscs+2gp") = forbid)

let test_law_agrees_on_battery () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (e.name ^ ": theorem 1 equivalence")
            true
            (Lkmm.Rcu.theorem1_holds x))
        (Exec.of_test (Harness.Battery.test_of e)))
    Harness.Battery.all

let test_law_violated_has_no_witness () =
  let c = weak_ctx (battery "RCU-MP") in
  Alcotest.(check bool) "no precedes function works" true
    (Lkmm.Rcu.law_witness c = None)

let test_law_witness_on_consistent () =
  let t = battery "RCU-MP" in
  let consistent = List.filter Lkmm.consistent (Exec.of_test t) in
  Alcotest.(check bool) "some consistent execution" true (consistent <> []);
  List.iter
    (fun x ->
      let c = Lkmm.Relations.make x in
      Alcotest.(check bool) "witness exists" true
        (Lkmm.Rcu.law_witness c <> None))
    consistent

let test_rcu_path_counts () =
  (* rcu-path pairs events through at least as many GPs as RSCSes; on the
     weak RCU-MP execution it must be reflexive somewhere *)
  let c = weak_ctx (battery "RCU-MP") in
  Alcotest.(check bool) "rcu-path reflexive on forbidden execution" false
    (Rel.is_irreflexive c.rcu_path)

(* ------------------------------------------------------------------ *)
(* Structural invariants of the Figure 8 relations                     *)
(* ------------------------------------------------------------------ *)

let all_battery_ctxs =
  lazy
    (List.concat_map
       (fun (e : Harness.Battery.entry) ->
         List.map Lkmm.Relations.make
           (Exec.of_test (Harness.Battery.test_of e)))
       Harness.Battery.all)

let for_all_ctxs name p =
  List.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "%s (ctx %d)" name i) true (p c))
    (Lazy.force all_battery_ctxs)

let test_struct_fences_in_po () =
  (* every fence-induced ordering relates po-ordered events *)
  for_all_ctxs "fence subset of po" (fun c ->
      Rel.subset c.Lkmm.Relations.fence c.Lkmm.Relations.x.Exec.po);
  for_all_ctxs "gp subset of po" (fun c ->
      Rel.subset c.Lkmm.Relations.gp c.Lkmm.Relations.x.Exec.po);
  (* NB rscs is intentionally not within po: the paper lists backward
     pairs such as (b, a) among Figure 10's rscs *)
  for_all_ctxs "crit subset of po" (fun c ->
      Rel.subset c.Lkmm.Relations.crit c.Lkmm.Relations.x.Exec.po)

let test_struct_hierarchy () =
  for_all_ctxs "strong-fence subset of fence" (fun c ->
      Rel.subset c.Lkmm.Relations.strong_fence c.Lkmm.Relations.fence);
  for_all_ctxs "rfe subset of hb" (fun c ->
      Rel.subset c.Lkmm.Relations.x.Exec.rfe c.Lkmm.Relations.hb);
  for_all_ctxs "ppo subset of hb" (fun c ->
      Rel.subset c.Lkmm.Relations.ppo c.Lkmm.Relations.hb);
  for_all_ctxs "wmb subset of cumul-fence" (fun c ->
      Rel.subset c.Lkmm.Relations.wmb c.Lkmm.Relations.cumul_fence);
  for_all_ctxs "strong-rrdep subset of rrdep+" (fun c ->
      Rel.subset c.Lkmm.Relations.strong_rrdep
        (Rel.transitive_closure c.Lkmm.Relations.rrdep))

let test_struct_ppo_in_po_when_coherent () =
  (* on sc-per-variable-consistent executions, preserved program order
     really is program order *)
  List.iter
    (fun c ->
      if Lkmm.Axioms.holds c Lkmm.Axioms.Scpv then
        Alcotest.(check bool) "ppo subset of po" true
          (Rel.subset c.Lkmm.Relations.ppo c.Lkmm.Relations.x.Exec.po))
    (Lazy.force all_battery_ctxs)

let test_struct_rcu_path_needs_gps () =
  (* rcu-path is empty whenever the execution has no grace period *)
  for_all_ctxs "no gp, no rcu-path" (fun c ->
      (not (Rel.Iset.is_empty c.Lkmm.Relations.sync))
      || Rel.is_empty c.Lkmm.Relations.rcu_path)

(* ------------------------------------------------------------------ *)
(* Explanations                                                        *)
(* ------------------------------------------------------------------ *)

let test_explain_forbidden () =
  let c = weak_ctx (battery "SB+mbs") in
  match Lkmm.Explain.explain_execution c.x with
  | [ e ] ->
      Alcotest.(check string) "the pb violation"
        (Lkmm.Axioms.to_string Lkmm.Axioms.Pb)
        e.Exec.Explain.check;
      Alcotest.(check bool) "with a cycle" true (e.Exec.Explain.steps <> [])
  | es -> Alcotest.failf "expected one explanation, got %d" (List.length es)

let test_explain_cycle_is_real () =
  List.iter
    (fun name ->
      let c = weak_ctx (battery name) in
      List.iter
        (fun (e : Exec.Explain.t) ->
          let axiom =
            List.find
              (fun a -> Lkmm.Axioms.to_string a = e.check)
              Lkmm.Axioms.all
          in
          let rel = Lkmm.Axioms.relation c axiom in
          let steps = e.steps in
          let closes =
            List.for_all2
              (fun (s : Exec.Explain.step) (s' : Exec.Explain.step) ->
                s.dst = s'.src)
              steps
              (List.tl steps @ [ List.hd steps ])
          in
          match axiom with
          | Lkmm.Axioms.At -> ()
          | _ ->
              Alcotest.(check bool)
                (name ^ ": explanation cycle has real edges")
                true
                (closes
                && List.for_all
                     (fun (s : Exec.Explain.step) -> Rel.mem s.src s.dst rel)
                     steps))
        (Lkmm.Explain.explain_execution c.x))
    [ "SB+mbs"; "MP+wmb+rmb"; "PeterZ"; "LB+ctrl+mb"; "RWC+mbs" ]

(* ------------------------------------------------------------------ *)
(* Properties over generated tests                                     *)
(* ------------------------------------------------------------------ *)

let generated_tests =
  lazy
    (let rng = Random.State.make [| 99 |] in
     Diygen.generate ~vocabulary:Diygen.Edge.core_vocabulary 4
     @ Diygen.sample ~vocabulary:Diygen.Edge.vocabulary ~rng ~count:40 5)

let test_prop_sc_subset_lk () =
  (* every SC-consistent execution is LK-consistent (LK is weaker) *)
  List.iter
    (fun t ->
      List.iter
        (fun x ->
          if Models.Sc.consistent x then
            Alcotest.(check bool)
              (t.Litmus.Ast.name ^ ": SC-consistent implies LK-consistent")
              true (Lkmm.consistent x))
        (Exec.of_test t))
    (Lazy.force generated_tests)

let test_prop_theorem1_generated () =
  List.iter
    (fun t ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (t.Litmus.Ast.name ^ ": theorem 1")
            true
            (Lkmm.Rcu.theorem1_holds x))
        (Exec.of_test t))
    (Lazy.force generated_tests)

let test_prop_fences_monotone () =
  (* adding smp_mb everywhere can only forbid more: if the fully-fenced
     variant allows the outcome, so does the original *)
  let add_mb (t : Litmus.Ast.t) =
    let rec fence_after = function
      | [] -> []
      | i :: rest -> i :: Litmus.Ast.Fence Litmus.Ast.F_mb :: fence_after rest
    in
    { t with threads = Array.map fence_after t.threads }
  in
  List.iter
    (fun (t : Litmus.Ast.t) ->
      let v = verdict t and v' = verdict (add_mb t) in
      Alcotest.(check bool)
        (t.name ^ ": fencing never newly allows")
        false
        (v = forbid && v' = allow))
    (Lazy.force generated_tests)

let () =
  Alcotest.run "lkmm"
    [
      ( "figure8",
        [
          Alcotest.test_case "rwdep/ctrl" `Quick test_rwdep_ctrl;
          Alcotest.test_case "wmb" `Quick test_wmb_orders_writes_only;
          Alcotest.test_case "rmb" `Quick test_rmb_orders_reads_only;
          Alcotest.test_case "mb" `Quick test_mb_orders_everything;
          Alcotest.test_case "A-cumulativity" `Quick
            test_a_cumulativity_of_release;
          Alcotest.test_case "prop (fig 2)" `Quick test_prop_of_figure2;
          Alcotest.test_case "hb cycle (fig 4)" `Quick test_hb_cycle_figure4;
          Alcotest.test_case "pb cycle (fig 6)" `Quick test_pb_cycle_figure6;
          Alcotest.test_case "pb cycle (fig 7)" `Quick test_pb_cycle_figure7;
          Alcotest.test_case "rrdep prefix (fig 9)" `Quick
            test_rrdep_prefix_figure9;
          Alcotest.test_case "strong-rrdep barrier" `Quick
            test_strong_rrdep_needs_barrier;
          Alcotest.test_case "rfi-rel-acq" `Quick test_rfi_rel_acq;
          Alcotest.test_case "gp strong fence" `Quick test_gp_is_strong_fence;
        ] );
      ( "axioms",
        [
          Alcotest.test_case "violations per figure" `Quick
            test_axiom_violations;
          Alcotest.test_case "allowed is consistent" `Quick
            test_allowed_execution_consistent;
        ] );
      ( "verdicts",
        [ Alcotest.test_case "whole battery" `Quick test_battery_verdicts ] );
      ( "rcu",
        [
          Alcotest.test_case "crit nesting" `Quick test_crit_matching;
          Alcotest.test_case "unbalanced" `Quick test_unbalanced_lock_ignored;
          Alcotest.test_case "counting rule" `Quick test_rcu_counting_rule;
          Alcotest.test_case "theorem 1 on battery" `Slow
            test_law_agrees_on_battery;
          Alcotest.test_case "law has no witness when violated" `Quick
            test_law_violated_has_no_witness;
          Alcotest.test_case "law witness when consistent" `Quick
            test_law_witness_on_consistent;
          Alcotest.test_case "rcu-path reflexivity" `Quick
            test_rcu_path_counts;
        ] );
      ( "structure",
        [
          Alcotest.test_case "fences within po" `Quick
            test_struct_fences_in_po;
          Alcotest.test_case "relation hierarchy" `Quick
            test_struct_hierarchy;
          Alcotest.test_case "ppo within po (coherent)" `Quick
            test_struct_ppo_in_po_when_coherent;
          Alcotest.test_case "rcu-path needs gps" `Quick
            test_struct_rcu_path_needs_gps;
        ] );
      ( "explain",
        [
          Alcotest.test_case "single violation" `Quick test_explain_forbidden;
          Alcotest.test_case "cycles are real" `Quick
            test_explain_cycle_is_real;
        ] );
      ( "properties",
        [
          Alcotest.test_case "SC subset LK" `Slow test_prop_sc_subset_lk;
          Alcotest.test_case "theorem 1 generated" `Slow
            test_prop_theorem1_generated;
          Alcotest.test_case "fencing monotone" `Slow test_prop_fences_monotone;
        ] );
    ]
