(* Tests for the operational hardware simulators: per-architecture weak
   behaviours, fence/dependency enforcement, soundness against the models,
   and the machine's bookkeeping (buffers, coherence floors, RCU
   primitives, mutexes). *)

let battery name = Harness.Battery.test_of (Harness.Battery.find name)

let observed arch ?(runs = 3_000) ?(seed = 123) name =
  (Hwsim.run_test arch ~runs ~seed (battery name)).Hwsim.matched

(* ------------------------------------------------------------------ *)
(* Per-architecture behaviour                                          *)
(* ------------------------------------------------------------------ *)

let test_sc_shows_nothing_weak () =
  List.iter
    (fun name ->
      Alcotest.(check int) ("SC never shows " ^ name) 0
        (observed Hwsim.Arch.sc name))
    [ "SB"; "MP"; "LB"; "WRC"; "RWC"; "PeterZ-No-Synchro" ]

let test_x86_store_buffering_only () =
  Alcotest.(check bool) "x86 shows SB" true (observed Hwsim.Arch.x86 "SB" > 0);
  Alcotest.(check int) "x86 hides MP" 0 (observed Hwsim.Arch.x86 "MP");
  Alcotest.(check int) "x86 hides WRC" 0 (observed Hwsim.Arch.x86 "WRC");
  Alcotest.(check int) "x86 hides LB" 0 (observed Hwsim.Arch.x86 "LB")

let test_relaxed_archs_show_mp () =
  List.iter
    (fun arch ->
      Alcotest.(check bool)
        (arch.Hwsim.Arch.name ^ " shows MP")
        true
        (observed arch "MP" > 0))
    [ Hwsim.Arch.armv7; Hwsim.Arch.armv8; Hwsim.Arch.power8 ]

let test_lb_never_observed () =
  (* Table 5: LB was not observed on any tested machine; our machines
     never execute writes early, so this is structural *)
  List.iter
    (fun arch ->
      Alcotest.(check int)
        (arch.Hwsim.Arch.name ^ " never shows LB")
        0 (observed arch "LB"))
    Hwsim.Arch.table5

let test_fences_kill_weakness () =
  List.iter
    (fun (name : string) ->
      List.iter
        (fun arch ->
          Alcotest.(check int)
            (name ^ " never observed on " ^ arch.Hwsim.Arch.name)
            0 (observed arch name))
        Hwsim.Arch.table5)
    [ "SB+mbs"; "MP+wmb+rmb"; "WRC+po-rel+rmb"; "PeterZ"; "RWC+mbs";
      "MP+po-rel+acq"; "LB+ctrl+mb" ]

let test_peterz_no_synchro_on_x86 () =
  (* the surprising Table 5 cell: observable through the store buffer
     alone, no read reordering needed *)
  Alcotest.(check bool) "PeterZ-No-Synchro on x86" true
    (observed Hwsim.Arch.x86 ~runs:20_000 "PeterZ-No-Synchro" > 0)

let test_alpha_breaks_addr_deps () =
  Alcotest.(check bool) "Alpha shows MP+wmb+addr" true
    (observed Hwsim.Arch.alpha ~runs:6_000 "MP+wmb+addr" > 0);
  Alcotest.(check int) "ARMv8 keeps the dependency" 0
    (observed Hwsim.Arch.armv8 ~runs:6_000 "MP+wmb+addr");
  Alcotest.(check int) "rb-dep repairs Alpha" 0
    (observed Hwsim.Arch.alpha ~runs:6_000 "MP+wmb+rcu-deref")

let test_rcu_forbidden_never_observed () =
  List.iter
    (fun name ->
      List.iter
        (fun arch ->
          Alcotest.(check int)
            (name ^ " on " ^ arch.Hwsim.Arch.name)
            0 (observed arch name))
        Hwsim.Arch.table5)
    [ "RCU-MP"; "RCU-deferred-free" ]

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)
(* ------------------------------------------------------------------ *)

(* Retry-until-stable sampling: batches with fresh seeds until the
   outcome histogram converges, or the retry cap hits. *)
let test_stable_sampling () =
  let st = Hwsim.run_test_stable Hwsim.Arch.x86 ~batch:500 ~seed:7 (battery "SB") in
  Alcotest.(check bool) "converged" true st.Hwsim.converged;
  Alcotest.(check bool) "ran several batches" true (st.Hwsim.batches >= 4);
  Alcotest.(check int) "cumulative totals"
    (st.Hwsim.batches * 500)
    st.Hwsim.stats.Hwsim.total;
  Alcotest.(check bool) "weak outcome surfaced" true
    (st.Hwsim.stats.Hwsim.matched > 0)

let test_stable_retry_cap () =
  let st =
    Hwsim.run_test_stable Hwsim.Arch.x86 ~batch:50 ~max_batches:2
      ~stable_batches:10 ~seed:7 (battery "SB")
  in
  Alcotest.(check bool) "cap hit" true (not st.Hwsim.converged);
  Alcotest.(check int) "stopped at the cap" 2 st.Hwsim.batches

let test_soundness_budgeted () =
  let s = Hwsim.run_test Hwsim.Arch.x86 ~runs:200 ~seed:3 (battery "SB") in
  (match Hwsim.soundness Lkmm.oracle (battery "SB") s with
  | Hwsim.Sound -> ()
  | _ -> Alcotest.fail "expected sound");
  match
    Hwsim.soundness
      ~limits:(Exec.Budget.limits ~max_candidates:1 ())
      Lkmm.oracle (battery "SB") s
  with
  | Hwsim.Soundness_unknown (Exec.Budget.Too_many_candidates _) -> ()
  | _ -> Alcotest.fail "expected soundness unknown"

let test_soundness_battery () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let test = Harness.Battery.test_of e in
      List.iter
        (fun arch ->
          let s = Hwsim.run_test arch ~runs:800 ~seed:3 test in
          Alcotest.(check (list (pair (list (pair string int)) int)))
            (e.name ^ " sound on " ^ arch.Hwsim.Arch.name)
            []
            (Hwsim.unsound_outcomes Lkmm.oracle test s))
        (Hwsim.Arch.alpha :: Hwsim.Arch.table5))
    Harness.Battery.all

let test_tso_sim_sound_wrt_tso_model () =
  (* the x86 machine stays within the x86-TSO axiomatic model *)
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let test = Harness.Battery.test_of e in
      if not (Litmus.Ast.has_rcu test) then
        let s = Hwsim.run_test Hwsim.Arch.x86 ~runs:800 ~seed:3 test in
        Alcotest.(check (list (pair (list (pair string int)) int)))
          (e.name ^ " x86 within TSO")
          []
          (Hwsim.unsound_outcomes (Exec.Oracle.of_model (module Models.Tso)) test s))
    Harness.Battery.all

let test_sc_sim_sound_wrt_sc_model () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let test = Harness.Battery.test_of e in
      if not (Litmus.Ast.has_rcu test) then
        let s = Hwsim.run_test Hwsim.Arch.sc ~runs:400 ~seed:3 test in
        Alcotest.(check (list (pair (list (pair string int)) int)))
          (e.name ^ " SC machine within SC")
          []
          (Hwsim.unsound_outcomes (Exec.Oracle.of_model (module Models.Sc)) test s))
    Harness.Battery.all

let test_soundness_generated () =
  let rng = Random.State.make [| 31 |] in
  let tests =
    Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:25 4
    @ Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:15 5
  in
  List.iter
    (fun t ->
      List.iter
        (fun arch ->
          let s = Hwsim.run_test arch ~runs:400 ~seed:3 t in
          Alcotest.(check (list (pair (list (pair string int)) int)))
            (t.Litmus.Ast.name ^ " sound on " ^ arch.Hwsim.Arch.name)
            []
            (Hwsim.unsound_outcomes Lkmm.oracle t s))
        [ Hwsim.Arch.power8; Hwsim.Arch.x86 ])
    tests

(* ------------------------------------------------------------------ *)
(* Machine bookkeeping on hand-written IR programs                     *)
(* ------------------------------------------------------------------ *)

let run_machine ?(arch = Hwsim.Arch.power8) ?(seed = 9) prog =
  Hwsim.Machine.run ~rng:(Random.State.make [| seed |]) arch
    (Hwsim.Machine.compile prog)

let run_ir ?arch ?seed prog =
  match run_machine ?arch ?seed prog with
  | Some st -> Hwsim.Machine.result st
  | None -> Alcotest.fail "machine aborted"

let reg (r : Hwsim.Machine.run_result) tid name =
  List.fold_left
    (fun acc (t, n, v) -> if t = tid && n = name then v else acc)
    min_int r.Hwsim.Machine.regs

let mem (r : Hwsim.Machine.run_result) key =
  try List.assoc key r.Hwsim.Machine.mem with Not_found -> min_int

let base_prog threads =
  {
    Kir.name = "t";
    init = [];
    arrays = [];
    threads;
    addr_table = [];
  }

let test_machine_sequential () =
  (* arithmetic, loops, arrays, in one thread *)
  let p =
    base_prog
      [
        [
          Kir.Assign ("i", Kir.Int 0);
          Kir.Assign ("sum", Kir.Int 0);
          Kir.While
            ( Kir.Bin (Litmus.Ast.Lt, Kir.Reg "i", Kir.Int 5),
              [
                Kir.Write (Litmus.Ast.W_once, Kir.Arr ("a", Kir.Reg "i"),
                           Kir.Reg "i");
                Kir.Assign
                  ("sum", Kir.Bin (Litmus.Ast.Add, Kir.Reg "sum", Kir.Reg "i"));
                Kir.Assign ("i", Kir.Bin (Litmus.Ast.Add, Kir.Reg "i", Kir.Int 1));
              ] );
        ];
      ]
  in
  let p = { p with Kir.arrays = [ ("a", 5) ] } in
  let r = run_ir p in
  Alcotest.(check int) "sum 0..4" 10 (reg r 0 "sum");
  Alcotest.(check int) "a[3]" 3 (mem r "a[3]")

let test_machine_buffer_forwarding () =
  (* a thread reads its own buffered write *)
  let p =
    base_prog
      [
        [
          Kir.Write (Litmus.Ast.W_once, Kir.Var "x", Kir.Int 7);
          Kir.Read (Litmus.Ast.R_once, "r", Kir.Var "x");
        ];
      ]
  in
  for seed = 0 to 20 do
    let r = run_ir ~seed p in
    Alcotest.(check int) "forwarding" 7 (reg r 0 "r")
  done

let test_machine_po_loc_coherence () =
  (* reads of one location never go backwards, on any profile *)
  let p =
    base_prog
      [
        [ Kir.Write (Litmus.Ast.W_once, Kir.Var "x", Kir.Int 1);
          Kir.Write (Litmus.Ast.W_once, Kir.Var "x", Kir.Int 2) ];
        [ Kir.Read (Litmus.Ast.R_once, "r1", Kir.Var "x");
          Kir.Read (Litmus.Ast.R_once, "r2", Kir.Var "x") ];
      ]
  in
  List.iter
    (fun arch ->
      for seed = 0 to 80 do
        let r = run_ir ~arch ~seed p in
        let r1 = reg r 1 "r1" and r2 = reg r 1 "r2" in
        Alcotest.(check bool)
          (Printf.sprintf "coherent on %s (r1=%d r2=%d)" arch.Hwsim.Arch.name
             r1 r2)
          true
          (not (r1 = 2 && r2 = 1) && not (r1 > 0 && r2 = 0))
      done)
    [ Hwsim.Arch.power8; Hwsim.Arch.alpha ]

let test_machine_mutex () =
  (* mutual exclusion: both threads increment a counter under a lock *)
  let incr_body =
    [
      Kir.Mutex_lock "m";
      Kir.Read (Litmus.Ast.R_once, "r", Kir.Var "c");
      Kir.Write
        (Litmus.Ast.W_once, Kir.Var "c",
         Kir.Bin (Litmus.Ast.Add, Kir.Reg "r", Kir.Int 1));
      Kir.Mutex_unlock "m";
    ]
  in
  for seed = 0 to 50 do
    let r = run_ir ~seed (base_prog [ incr_body; incr_body ]) in
    Alcotest.(check int) "both increments land" 2 (mem r "c")
  done

let test_machine_native_gp_waits () =
  (* a GP starting while a reader is inside its RSCS must wait for the
     unlock: the reader's two reads then bracket no GP *)
  let t = battery "RCU-MP" in
  let p = Kir.of_litmus t in
  for seed = 0 to 200 do
    let r = run_ir ~seed ~arch:Hwsim.Arch.power8 p in
    Alcotest.(check bool) "forbidden outcome absent" false
      (reg r 0 "r1" = 1 && reg r 0 "r2" = 0)
  done

(* a program that can never finish *)
let livelock = base_prog [ [ Kir.While (Kir.Int 1, [ Kir.Skip ]) ] ]

let test_machine_abort_on_livelock () =
  (* it hits the step cap and aborts *)
  let p = livelock in
  Alcotest.(check bool) "aborts" true
    (run_machine ~seed:1 ~arch:Hwsim.Arch.x86 p = None)

let test_machine_array_bounds () =
  (* an index outside the declared length is stuck, as a bad pointer is *)
  let prog body = { (base_prog [ body ]) with Kir.arrays = [ ("a", 2) ] } in
  let stuck what body =
    match run_machine (prog body) with
    | exception Hwsim.Machine.Stuck _ -> ()
    | _ -> Alcotest.failf "%s: expected Stuck" what
  in
  let read loc = Kir.Read (Litmus.Ast.R_once, "r", loc) in
  stuck "write past the end"
    [ Kir.Write (Litmus.Ast.W_once, Kir.Arr ("a", Kir.Int 2), Kir.Int 1) ];
  stuck "negative index"
    [ Kir.Assign ("i", Kir.Int (-1)); read (Kir.Arr ("a", Kir.Reg "i")) ];
  stuck "undeclared array" [ read (Kir.Arr ("b", Kir.Int 0)) ];
  stuck "bad pointer" [ Kir.Assign ("p", Kir.Int 7); read (Kir.Deref "p") ];
  let r =
    run_ir
      (prog [ Kir.Write (Litmus.Ast.W_once, Kir.Arr ("a", Kir.Int 1), Kir.Int 5) ])
  in
  Alcotest.(check (list (pair string int)))
    "cells in bounds" [ ("a[0]", 0); ("a[1]", 5) ]
    (List.sort compare r.Hwsim.Machine.mem)

let test_outcome_extraction () =
  let t = battery "MP" in
  let s = Hwsim.run_test Hwsim.Arch.sc ~runs:200 ~seed:4 t in
  (* outcomes carry the same keys as the model side *)
  let model_keys =
    match Exec.Check.allowed_outcomes (module Models.Sc) t with
    | o :: _ -> List.map fst o
    | [] -> []
  in
  List.iter
    (fun (o, _) ->
      Alcotest.(check (list string)) "keys align" model_keys (List.map fst o))
    s.Hwsim.outcomes

(* ------------------------------------------------------------------ *)
(* Seeded results, pinned                                              *)
(* ------------------------------------------------------------------ *)

(* A seeded run is a pure function of (profile, runs, seed, program), so
   these digests pin the machine's results: a change that moves any
   random draw, in its order or its count, fails here.  The digests are
   of a canonical text rendering (registers and memory sorted), not of
   Marshal output, which also encodes physical sharing. *)

let render_stats (s : Hwsim.stats) =
  let outcome o =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o)
  in
  Printf.sprintf "%s %d/%d %s" s.Hwsim.arch s.Hwsim.matched s.Hwsim.total
    (String.concat " "
       (List.map
          (fun (o, n) -> Printf.sprintf "%s:%d" (outcome o) n)
          s.Hwsim.outcomes))

let render_results (results, aborted) =
  let run (r : Hwsim.Machine.run_result) =
    String.concat " "
      (List.map
         (fun (t, n, v) -> Printf.sprintf "%d:%s=%d" t n v)
         (List.sort compare r.Hwsim.Machine.regs)
      @ "|"
        :: List.map
             (fun (x, v) -> Printf.sprintf "%s=%d" x v)
             (List.sort compare r.Hwsim.Machine.mem))
  in
  String.concat "\n" (Printf.sprintf "aborted %d" aborted :: List.map run results)

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* The first 300 tests diygen realises from seed 0 on the campaign's
   vocabulary at size 6, each run at its own seed, as a campaign does. *)
let diy_sample () =
  let rec go acc n seed =
    if n = 300 then List.rev acc
    else
      match
        Diygen.test_of_seed ~vocabulary:Diygen.Edge.core_vocabulary ~size:6
          seed
      with
      | None -> go acc n (seed + 1)
      | Some t -> go ((seed, t) :: acc) (n + 1) (seed + 1)
  in
  go [] 0 0

(* Callbacks queued inside a reader's critical section and released
   together: after the unlock both threads sleep, so the pending callbacks
   are promoted, one a step, while every thread in play is stalled.  The
   empty bodies leave the callback thread idle, so a promotion that comes
   late changes which threads are in play. *)
let callback_burst =
  let nop = Kir.Call_rcu [] in
  {
    Kir.name = "call-rcu-burst";
    init = [];
    arrays = [];
    addr_table = [];
    threads =
      [
        [
          Kir.Fence Litmus.Ast.F_rcu_lock;
          Kir.Sleep;
          Kir.Read (Litmus.Ast.R_once, "r1", Kir.Var "x");
          Kir.Fence Litmus.Ast.F_rcu_unlock;
          Kir.Sleep;
        ];
        [
          Kir.Write (Litmus.Ast.W_once, Kir.Var "x", Kir.Int 1);
          nop; nop; nop; nop;
          Kir.Sleep;
          Kir.Rcu_barrier;
        ];
      ];
  }

let pinned_inputs () =
  let tests =
    List.concat_map
      (fun e ->
        let t = Harness.Battery.test_of e in
        List.map
          (fun arch -> render_stats (Hwsim.run_test arch ~runs:200 ~seed:5 t))
          Hwsim.Arch.all)
      Harness.Battery.all
  in
  let diygen =
    List.map
      (fun (seed, t) ->
        t.Litmus.Ast.name ^ " "
        ^ render_stats (Hwsim.run_test Hwsim.Arch.power8 ~runs:100 ~seed t))
      (diy_sample ())
  in
  let rcu_impl =
    List.concat_map
      (fun name ->
        let p = Kir.of_litmus (battery name) in
        List.concat_map
          (fun variant ->
            let p = Kir.Rcu_impl.transform ~variant p in
            List.map
              (fun arch ->
                render_results (Hwsim.run_program arch ~runs:100 ~seed:11 p))
              [ Hwsim.Arch.power8; Hwsim.Arch.armv8; Hwsim.Arch.x86 ])
          [ Kir.Rcu_impl.Full; Kir.Rcu_impl.No_wait; Kir.Rcu_impl.No_reader_mb ])
      [ "RCU-MP"; "RCU-deferred-free" ]
  in
  let call_rcu =
    List.concat_map
      (fun second ->
        let p = Call_rcu.program ~second ~deferred:true () in
        List.map
          (fun arch ->
            render_results (Hwsim.run_program arch ~runs:300 ~seed:3 p))
          Hwsim.Arch.all)
      [ false; true ]
  in
  let burst =
    List.map
      (fun arch ->
        render_results (Hwsim.run_program arch ~runs:300 ~seed:3 callback_burst))
      Hwsim.Arch.all
  in
  [ ("battery", tests); ("diygen", diygen); ("rcu-impl", rcu_impl);
    ("call-rcu", call_rcu); ("call-rcu-burst", burst) ]

let test_pinned_results () =
  Alcotest.(check (list (pair string string)))
    "digests"
    [
      ("battery", "1c8de776f96101811c8a9f8e8f5db9ba");
      ("diygen", "5e636d10385f8ad8f711a14ff0886412");
      ("rcu-impl", "31b6d67e9dfe3f7371aae049363eafba");
      ("call-rcu", "7523185565678299d344bbdd9260c102");
      ("call-rcu-burst", "38f70cf048b30c11381e321b2b06588b");
    ]
    (List.map (fun (name, lines) -> (name, digest lines)) (pinned_inputs ()))

(* The production probe over the same inputs: one hwsim.run span per
   run_test/run_program call, and hwsim.runs, hwsim.steps and
   hwsim.aborted bumped once per run.  Steps count every scheduler step,
   the idle ones the machine skips in one jump included, so the figure
   equals the one the step-by-step scheduler gives with the same
   counter. *)
let test_probe_counters () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      ignore (pinned_inputs ());
      ignore (Hwsim.run_program Hwsim.Arch.x86 ~runs:1 livelock));
  let spans =
    List.length
      (List.filter (fun (s : Obs.span) -> s.Obs.name = "hwsim.run") (Obs.spans ()))
  in
  let count n = Option.value ~default:0 (List.assoc_opt n (Obs.counters ())) in
  Alcotest.(check (list (pair string int)))
    "probe"
    [
      ("spans", 625);
      ("runs", 94_801);
      ("steps", 2_988_595 + Hwsim.Machine.max_steps + 1);
      ("aborted", 1);
    ]
    [
      ("spans", spans);
      ("runs", count "hwsim.runs");
      ("steps", count "hwsim.steps");
      ("aborted", count "hwsim.aborted");
    ];
  Obs.reset ()

(* Every run of this test deadlocks on a lock no thread releases, so
   each hits the step cap and is aborted: no run observes anything. *)
let deadlock =
  Litmus.parse
    "C deadlock\n{ }\n\
     P0(int *s, int *x) { spin_lock(s); WRITE_ONCE(*x, 1); }\n\
     P1(int *s, int *x) { spin_lock(s); WRITE_ONCE(*x, 1); }\n\
     exists (x=1)"

(* [observes] is [run_test]'s [matched > 0] on the inputs of "pinned":
   every battery test under all six profiles, and the diygen tests on
   Power8.  The deadlock, whose every run is aborted, must not count as
   observed. *)
let test_observes_equals_run_test () =
  let agree label arch ~runs ~seed t =
    Alcotest.(check bool)
      (Printf.sprintf "%s on %s" label arch.Hwsim.Arch.name)
      ((Hwsim.run_test arch ~runs ~seed t).Hwsim.matched > 0)
      (Hwsim.observes arch ~runs ~seed t)
  in
  List.iter
    (fun (e : Harness.Battery.entry) ->
      List.iter
        (fun arch ->
          agree e.Harness.Battery.name arch ~runs:200 ~seed:5
            (Harness.Battery.test_of e))
        Hwsim.Arch.all)
    Harness.Battery.all;
  List.iter
    (fun (seed, t) ->
      agree t.Litmus.Ast.name Hwsim.Arch.power8 ~runs:100 ~seed t)
    (diy_sample ());
  Alcotest.(check int) "the deadlock completes no run" 0
    (Hwsim.run_test Hwsim.Arch.power8 ~runs:3 ~seed:1 deadlock).Hwsim.total;
  agree "deadlock" Hwsim.Arch.power8 ~runs:3 ~seed:1 deadlock

let () =
  Alcotest.run "hwsim"
    [
      ( "architectures",
        [
          Alcotest.test_case "SC machine" `Quick test_sc_shows_nothing_weak;
          Alcotest.test_case "x86 = store buffer" `Quick
            test_x86_store_buffering_only;
          Alcotest.test_case "relaxed show MP" `Quick
            test_relaxed_archs_show_mp;
          Alcotest.test_case "LB never" `Quick test_lb_never_observed;
          Alcotest.test_case "fences enforce" `Slow test_fences_kill_weakness;
          Alcotest.test_case "PeterZ-NS on x86" `Slow
            test_peterz_no_synchro_on_x86;
          Alcotest.test_case "Alpha addr deps" `Slow
            test_alpha_breaks_addr_deps;
          Alcotest.test_case "RCU forbidden" `Slow
            test_rcu_forbidden_never_observed;
        ] );
      ( "stable",
        [
          Alcotest.test_case "convergence" `Quick test_stable_sampling;
          Alcotest.test_case "retry cap" `Quick test_stable_retry_cap;
          Alcotest.test_case "budgeted soundness" `Quick
            test_soundness_budgeted;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "battery vs LK" `Slow test_soundness_battery;
          Alcotest.test_case "x86 vs TSO" `Slow test_tso_sim_sound_wrt_tso_model;
          Alcotest.test_case "SC machine vs SC" `Quick
            test_sc_sim_sound_wrt_sc_model;
          Alcotest.test_case "generated vs LK" `Slow test_soundness_generated;
        ] );
      ( "machine",
        [
          Alcotest.test_case "sequential programs" `Quick
            test_machine_sequential;
          Alcotest.test_case "buffer forwarding" `Quick
            test_machine_buffer_forwarding;
          Alcotest.test_case "po-loc coherence" `Quick
            test_machine_po_loc_coherence;
          Alcotest.test_case "mutex" `Quick test_machine_mutex;
          Alcotest.test_case "native GP waits" `Slow
            test_machine_native_gp_waits;
          Alcotest.test_case "livelock abort" `Quick
            test_machine_abort_on_livelock;
          Alcotest.test_case "array bounds" `Quick test_machine_array_bounds;
          Alcotest.test_case "outcome extraction" `Quick
            test_outcome_extraction;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "seeded results" `Slow test_pinned_results;
          Alcotest.test_case "probe counters" `Slow test_probe_counters;
        ] );
      ( "observes = run_test",
        [
          Alcotest.test_case "pinned inputs" `Slow
            test_observes_equals_run_test;
        ] );
    ]
