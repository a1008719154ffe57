(* Tests for the kernel IR: the litmus-to-IR compiler and the Figure 15
   RCU implementation (structure, faithful behaviour, broken variants). *)

let battery name = Harness.Battery.test_of (Harness.Battery.find name)

(* ------------------------------------------------------------------ *)
(* Compilation from litmus                                             *)
(* ------------------------------------------------------------------ *)

let test_of_litmus_mp () =
  let p = Kir.of_litmus (battery "MP+wmb+rmb") in
  Alcotest.(check int) "two threads" 2 (List.length p.Kir.threads);
  (match List.nth p.Kir.threads 0 with
  | [
   Kir.Write (Litmus.Ast.W_once, Kir.Var "x", Kir.Int 1);
   Kir.Fence Litmus.Ast.F_wmb;
   Kir.Write (Litmus.Ast.W_once, Kir.Var "y", Kir.Int 1);
  ] ->
      ()
  | _ -> Alcotest.fail "P0 shape");
  Alcotest.(check (list (pair string int))) "init" [ ("x", 0); ("y", 0) ]
    p.Kir.init

let test_of_litmus_rcu_deref () =
  let p = Kir.of_litmus (battery "MP+wmb+rcu-deref") in
  let reader = List.nth p.Kir.threads 1 in
  (match reader with
  | Kir.Read _ :: Kir.Fence Litmus.Ast.F_rb_dep :: _ -> ()
  | _ -> Alcotest.fail "rcu_dereference compiles to read + rb-dep");
  Alcotest.(check bool) "addr table covers globals" true
    (List.mem_assoc "z" p.Kir.addr_table)

let test_of_litmus_preserves_verdict_semantics () =
  (* running the compiled program on the SC machine yields only outcomes
     the SC model allows, for every battery test *)
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let t = Harness.Battery.test_of e in
      if not (Litmus.Ast.has_rcu t) then begin
        let s = Hwsim.run_test Hwsim.Arch.sc ~runs:300 ~seed:8 t in
        let allowed = Exec.Check.allowed_outcomes (module Models.Sc) t in
        List.iter
          (fun (o, _) ->
            Alcotest.(check bool)
              (e.name ^ ": SC-machine outcome is SC-model outcome")
              true (List.mem o allowed))
          s.Hwsim.outcomes
      end)
    Harness.Battery.all

(* ------------------------------------------------------------------ *)
(* Figure 15 implementation structure                                  *)
(* ------------------------------------------------------------------ *)

let test_transform_shape () =
  let p = Kir.Rcu_impl.transform (Kir.of_litmus (battery "RCU-MP")) in
  Alcotest.(check bool) "gc initialised to 1" true
    (List.assoc "gc" p.Kir.init = 1);
  Alcotest.(check bool) "rc[] sized by thread count" true
    (List.assoc "rc" p.Kir.arrays = 2);
  (* no RCU fences remain *)
  let rec has_rcu_fence = function
    | Kir.Fence
        (Litmus.Ast.F_rcu_lock | Litmus.Ast.F_rcu_unlock
        | Litmus.Ast.F_sync_rcu) ->
        true
    | Kir.If (_, a, b) ->
        List.exists has_rcu_fence a || List.exists has_rcu_fence b
    | Kir.While (_, a) -> List.exists has_rcu_fence a
    | _ -> false
  in
  List.iter
    (fun th ->
      Alcotest.(check bool) "primitives replaced" false
        (List.exists has_rcu_fence th))
    p.Kir.threads;
  (* the updater serialises grace periods through gp_lock *)
  let rec uses_mutex = function
    | Kir.Mutex_lock "gp_lock" -> true
    | Kir.If (_, a, b) -> List.exists uses_mutex a || List.exists uses_mutex b
    | Kir.While (_, a) -> List.exists uses_mutex a
    | _ -> false
  in
  Alcotest.(check bool) "updater takes gp_lock" true
    (List.exists (fun th -> List.exists uses_mutex th) p.Kir.threads)

let test_nested_rscs_counts () =
  (* nested lock/unlock: the counter discipline keeps rc[i] balanced, so
     the machine terminates with rc[tid] = 0 *)
  let t =
    Litmus.parse
      {|C nest
{ x=0; }
P0(int *x) {
  rcu_read_lock();
  rcu_read_lock();
  int r1 = READ_ONCE(x);
  rcu_read_unlock();
  rcu_read_unlock();
}
P1(int *x) {
  WRITE_ONCE(x, 1);
  synchronize_rcu();
}
exists (0:r1=0)|}
  in
  let p = Kir.Rcu_impl.transform (Kir.of_litmus t) in
  let results, aborted = Hwsim.run_program Hwsim.Arch.power8 ~runs:60 ~seed:2 p in
  Alcotest.(check int) "no aborts" 0 aborted;
  List.iter
    (fun (r : Hwsim.Machine.run_result) ->
      (* the phase bit may remain set; the CS_MASK counter must be 0 *)
      Alcotest.(check int) "rc[0] counter balanced" 0
        ((try List.assoc "rc[0]" r.Hwsim.Machine.mem with Not_found -> -1)
        land 0x0ffff))
    results

(* ------------------------------------------------------------------ *)
(* Theorem 2 empirically + the broken variants                         *)
(* ------------------------------------------------------------------ *)

let run_variant variant arch runs seed name =
  let t = battery name in
  let p = Kir.Rcu_impl.transform ~variant (Kir.of_litmus t) in
  let results, _ = Hwsim.run_program arch ~runs ~seed p in
  List.length (List.filter (Hwsim.eval_cond t) results)

let test_faithful_impl_clean () =
  List.iter
    (fun name ->
      List.iter
        (fun arch ->
          Alcotest.(check int)
            (name ^ " faithful impl on " ^ arch.Hwsim.Arch.name)
            0
            (run_variant Kir.Rcu_impl.Full arch 250 17 name))
        [ Hwsim.Arch.power8; Hwsim.Arch.armv8; Hwsim.Arch.x86 ])
    [ "RCU-MP"; "RCU-deferred-free" ]

let test_broken_impls_caught () =
  (* removing the grace-period wait or the reader-side smp_mb lets the
     forbidden outcome through — the verification harness has teeth *)
  let total_no_wait =
    List.fold_left
      (fun acc seed ->
        acc + run_variant Kir.Rcu_impl.No_wait Hwsim.Arch.x86 600 seed
                "RCU-deferred-free")
      0 [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "no-wait variant shows the forbidden outcome" true
    (total_no_wait > 0);
  let total_no_mb =
    List.fold_left
      (fun acc seed ->
        acc + run_variant Kir.Rcu_impl.No_reader_mb Hwsim.Arch.power8 600 seed
                "RCU-deferred-free")
      0 [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "no-reader-mb variant shows the forbidden outcome"
    true (total_no_mb > 0)

(* ------------------------------------------------------------------ *)
(* call_rcu / rcu_barrier (asynchronous grace periods, Section 7)      *)
(* ------------------------------------------------------------------ *)

let reg_of (r : Hwsim.Machine.run_result) tid name =
  List.fold_left
    (fun acc (t, n, v) -> if t = tid && n = name then v else acc)
    0 r.Hwsim.Machine.regs

(* A deferred-free via call_rcu ({!Call_rcu.program}): the callback (the
   "free", writing y) must not become visible inside an RSCS that read
   the old data. *)
let test_call_rcu_guarantee () =
  let results, aborted =
    Hwsim.run_program Hwsim.Arch.power8 ~runs:1500 ~seed:3
      (Call_rcu.program ~deferred:true ())
  in
  Alcotest.(check int) "no aborts" 0 aborted;
  List.iter
    (fun r ->
      Alcotest.(check bool) "callback deferred past the RSCS" false
        (reg_of r 0 "r1" = 0 && reg_of r 0 "r2" = 1))
    results

let test_call_rcu_needed () =
  (* without call_rcu the forbidden outcome appears: the harness would
     catch a missing grace period *)
  let results, _ =
    Hwsim.run_program Hwsim.Arch.power8 ~runs:1500 ~seed:3
      (Call_rcu.program ~deferred:false ())
  in
  Alcotest.(check bool) "immediate free is observable" true
    (List.exists
       (fun r -> reg_of r 0 "r1" = 0 && reg_of r 0 "r2" = 1)
       results)

let test_rcu_barrier_waits () =
  let results, _ =
    Hwsim.run_program Hwsim.Arch.power8 ~runs:300 ~seed:5
      (Call_rcu.program ~deferred:true ())
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "after rcu_barrier the callback ran" 1
        (reg_of r 1 "done"))
    results

let () =
  Alcotest.run "kir"
    [
      ( "compiler",
        [
          Alcotest.test_case "MP shape" `Quick test_of_litmus_mp;
          Alcotest.test_case "rcu_dereference" `Quick test_of_litmus_rcu_deref;
          Alcotest.test_case "SC semantics preserved" `Slow
            test_of_litmus_preserves_verdict_semantics;
        ] );
      ( "call-rcu",
        [
          Alcotest.test_case "grace-period guarantee" `Slow
            test_call_rcu_guarantee;
          Alcotest.test_case "needed at all" `Quick test_call_rcu_needed;
          Alcotest.test_case "rcu_barrier waits" `Quick
            test_rcu_barrier_waits;
        ] );
      ( "rcu-impl",
        [
          Alcotest.test_case "transform shape" `Quick test_transform_shape;
          Alcotest.test_case "nested counters" `Quick test_nested_rscs_counts;
          Alcotest.test_case "faithful is clean" `Slow
            test_faithful_impl_clean;
          Alcotest.test_case "broken are caught" `Slow
            test_broken_impls_caught;
        ] );
    ]
