(* Tests for Harness.Pool and its Harness.Supervisor: process
   isolation, watchdog kills, memory caps, crash classification, the
   one retry of a lost job and the crash exit code.

   Crashes are injected through the pool's [worker] override: a worker
   that kills its own process for designated item ids, and otherwise
   defers to the ordinary Runner.run_item.  This exercises the real
   fork/SIGKILL/reap machinery with deterministic failures. *)

module R = Harness.Runner
module P = Harness.Pool
module J = Harness.Journal
module B = Exec.Budget

let limits = B.limits ~timeout:5.0 ~max_candidates:50_000 ()
let oracle = Lkmm.oracle
let normal_worker = R.run_item ~limits ~oracle

let src name = (Harness.Battery.find name).Harness.Battery.source
let item id source expected = { R.id; source = `Text source; expected }

(* A worker that misbehaves on cue.  Runs in the forked child, so
   killing the process or spinning forever is contained by the pool. *)
let misbehaving (it : R.item) =
  match it.R.id with
  | "segv" ->
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
      assert false
  | "loop" ->
      (* an allocation-free infinite loop: no budget tick, no Gc alarm;
         only the watchdog can stop it *)
      let rec spin () : R.entry = spin () in
      spin ()
  | "oom" ->
      let rec eat acc : R.entry = eat (Bytes.create (1 lsl 20) :: acc) in
      eat []
  | _ -> normal_worker it

let config jobs =
  { P.default with P.jobs; limits }

let find_entry report id =
  List.find (fun (e : R.entry) -> e.R.item_id = id) report.R.entries

let test_crash_contained () =
  let report =
    P.run
      ~config:(config 2)
      ~worker:misbehaving ~oracle
      [
        item "ok1" (src "SB") (Some Exec.Check.Allow);
        item "segv" (src "SB") None;
        item "ok2" (src "MP+wmb+rmb") (Some Exec.Check.Forbid);
      ]
  in
  Alcotest.(check int) "both healthy items passed" 2 report.R.n_pass;
  Alcotest.(check int) "one crash" 1 report.R.n_crash;
  Alcotest.(check int) "no plain errors" 0 report.R.n_error;
  (match (find_entry report "segv").R.status with
  | R.Err { cls = R.Crash s; _ } ->
      Alcotest.(check int) "signal recorded" Sys.sigsegv s
  | s -> Alcotest.failf "expected crash entry: %a" R.pp_status s);
  Alcotest.(check bool) "deterministic crash was retried" true
    (find_entry report "segv").R.retried;
  Alcotest.(check int) "crash exit code" 4 (R.exit_code report)

let test_order_preserved () =
  let ids = [ "d"; "c"; "b"; "a" ] in
  let report =
    P.run ~config:(config 4) ~oracle
      (List.map (fun id -> item id (src "SB") None) ids)
  in
  Alcotest.(check (list string)) "entries in item order" ids
    (List.map (fun (e : R.entry) -> e.R.item_id) report.R.entries)

let test_watchdog_kills_loop () =
  let cfg =
    { P.default with P.jobs = 2; limits = B.limits ~timeout:0.2 () }
  in
  let t0 = Unix.gettimeofday () in
  let report =
    P.run ~config:cfg ~worker:misbehaving ~oracle
      [ item "loop" (src "SB") None; item "ok" (src "SB") None ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match (find_entry report "loop").R.status with
  | R.Gave_up (B.Timed_out _) -> ()
  | s -> Alcotest.failf "expected watchdog timeout: %a" R.pp_status s);
  Alcotest.(check bool) "the timed-out item was retried" true
    (find_entry report "loop").R.retried;
  Alcotest.(check int) "healthy item passed" 1 report.R.n_pass;
  Alcotest.(check int) "budget exit code" 3 (R.exit_code report);
  (* watchdog = 2 * 0.2 + 1 = 1.4s, twice, plus the 0.05s retry delay;
     well under the 5s this would hang without the watchdog (the loop
     never returns) *)
  Alcotest.(check bool) "killed promptly" true (wall < 4.0)

let test_mem_cap_contains_oom () =
  let cfg =
    { P.default with P.jobs = 1; limits = B.limits ~timeout:10.0 ();
      mem_limit_mb = Some 32 }
  in
  let report =
    P.run ~config:cfg ~worker:misbehaving ~oracle
      [ item "oom" (src "SB") None; item "ok" (src "SB") None ]
  in
  (match (find_entry report "oom").R.status with
  | R.Gave_up (B.Heap_exceeded 32) -> ()
  | s -> Alcotest.failf "expected heap cap: %a" R.pp_status s);
  Alcotest.(check int) "healthy item passed" 1 report.R.n_pass

(* Workers are reused, so the heap cap must charge the item that
   allocated, not its predecessor's garbage: one worker runs an item
   holding about 48 MB and then one holding about 40 MB, each under the
   64 MB cap on its own. *)
let test_mem_cap_charges_allocator () =
  let holding mb it =
    let held = List.init mb (fun _ -> Bytes.create (1 lsl 20)) in
    let e = normal_worker it in
    ignore (Sys.opaque_identity held);
    e
  in
  let worker (it : R.item) =
    holding (if it.R.id = "hold48" then 48 else 40) it
  in
  let cfg = { P.default with P.jobs = 1; limits; mem_limit_mb = Some 64 } in
  let report =
    P.run ~config:cfg ~worker ~oracle
      [
        item "hold48" (src "SB") (Some Exec.Check.Allow);
        item "hold40" (src "MP+wmb+rmb") (Some Exec.Check.Forbid);
      ]
  in
  Alcotest.(check int) "both items pass under the cap" 2 report.R.n_pass

(* A flaky crash: the first attempt dies, the retry succeeds.  The
   cross-attempt state lives in the filesystem because each attempt is
   a fresh process. *)
let test_flaky_crash_retried () =
  let marker = Filename.temp_file "pool_flaky" ".marker" in
  Sys.remove marker;
  let flaky (it : R.item) =
    match it.R.id with
    | "flaky" ->
        if not (Sys.file_exists marker) then begin
          let oc = open_out marker in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigsegv
        end;
        normal_worker it
    | _ -> normal_worker it
  in
  let report =
    P.run ~config:(config 1) ~worker:flaky ~oracle
      [ item "flaky" (src "SB") (Some Exec.Check.Allow) ]
  in
  if Sys.file_exists marker then Sys.remove marker;
  let e = find_entry report "flaky" in
  (match e.R.status with
  | R.Pass _ -> ()
  | s -> Alcotest.failf "expected pass after retry: %a" R.pp_status s);
  Alcotest.(check bool) "marked as retried" true e.R.retried;
  Alcotest.(check int) "no crash in the final report" 0 report.R.n_crash;
  Alcotest.(check int) "clean exit code" 0 (R.exit_code report)

let test_crash_beats_error_exit_code () =
  let report =
    P.run ~config:(config 2) ~worker:misbehaving ~oracle
      [
        item "segv" (src "SB") None;
        item "parse-err" "C broken\n{ x=0;\nP0(int *x" None;
        item "fail" (src "SB") (Some Exec.Check.Forbid);
      ]
  in
  Alcotest.(check int) "crash counted" 1 report.R.n_crash;
  Alcotest.(check int) "error counted" 1 report.R.n_error;
  Alcotest.(check int) "fail counted" 1 report.R.n_fail;
  Alcotest.(check int) "crash > error > fail" 4 (R.exit_code report)

(* The default worker: no injection, real checking in real workers,
   agreeing with the in-process runner on the same items. *)
let test_agrees_with_runner () =
  let items =
    [
      item "SB" (src "SB") (Some Exec.Check.Allow);
      item "MP+wmb+rmb" (src "MP+wmb+rmb") (Some Exec.Check.Forbid);
      item "bad" "garbage input" None;
    ]
  in
  let pooled = P.run ~config:(config 2) ~oracle items in
  let inproc = R.run ~limits items in
  List.iter2
    (fun (a : R.entry) (b : R.entry) ->
      Alcotest.(check string)
        (a.R.item_id ^ " same classified outcome")
        (Harness.Shrink.fingerprint b)
        (Harness.Shrink.fingerprint a))
    pooled.R.entries inproc.R.entries;
  Alcotest.(check int) "same exit code" (R.exit_code inproc)
    (R.exit_code pooled)

(* ------------------------------------------------------------------ *)
(* The supervisor's ladder                                             *)
(* ------------------------------------------------------------------ *)

module Sup = Harness.Supervisor

(* Each attempt is a fresh process, so a job notes its attempts (and
   when each started) in a file. *)
let attempts_file () =
  let path = Filename.temp_file "supervisor" ".attempts" in
  let note attempt =
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Printf.fprintf oc "%d %.6f\n" attempt (Unix.gettimeofday ());
    close_out oc
  in
  let read () =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (Scanf.sscanf l "%d %f" (fun a t -> (a, t)) :: acc)
      | exception End_of_file -> List.rev acc
    in
    let notes = go [] in
    close_in ic;
    Sys.remove path;
    notes
  in
  Sys.remove path;
  (note, read)

let run_one run =
  let sup = Sup.create ~jobs:1 run in
  Sup.submit sup ();
  let rec collect () =
    match Sup.wait sup () with [] -> collect () | ended -> ended
  in
  let ended = collect () in
  Alcotest.(check int) "nothing left running" 0 (Sup.running sup);
  Sup.close sup;
  match ended with
  | [ ((), _, exit) ] -> exit
  | _ -> Alcotest.fail "expected exactly one ended job"

let test_lost_once () =
  let note, read = attempts_file () in
  let exit =
    run_one (fun ~attempt () ->
        note attempt;
        if attempt = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        attempt)
  in
  (match exit with
  | Sup.Returned 2 -> ()
  | Sup.Returned n -> Alcotest.failf "returned by attempt %d" n
  | Sup.Lost _ -> Alcotest.fail "a job lost once must be retried");
  Alcotest.(check (list int)) "attempts seen" [ 1; 2 ] (List.map fst (read ()))

let test_lost_twice () =
  let note, read = attempts_file () in
  let exit =
    run_one (fun ~attempt () ->
        note attempt;
        if attempt = 1 then Unix._exit 7;
        Unix.kill (Unix.getpid ()) Sys.sigsegv;
        assert false)
  in
  (match exit with
  | Sup.Lost (Sup.Exited 7, Sup.Signaled s) when s = Sys.sigsegv -> ()
  | Sup.Lost _ -> Alcotest.fail "both losses, in order"
  | Sup.Returned () -> Alcotest.fail "a job lost twice cannot return");
  match read () with
  | [ (1, lost); (2, retried) ] ->
      (* attempt 1 noted its time just before dying *)
      Alcotest.(check bool) "retry waited out its delay" true
        (retried -. lost >= 0.05)
  | _ -> Alcotest.fail "expected attempts 1 and 2"

(* One worker: a job is lost, and a slow job takes the replacement
   before the retry falls due.  The retry then waits for the worker
   without spinning (the parent stays near idle while the slow job
   sleeps), and runs as attempt 2 once the worker is free. *)
let test_due_retry_waits () =
  let sup =
    Sup.create ~jobs:1 (fun ~attempt job ->
        if job = "lost" && attempt = 1 then Unix._exit 1;
        if job = "slow" then Unix.sleepf 1.;
        (job, attempt))
  in
  Sup.submit sup "lost";
  Alcotest.(check int) "the first loss is held" 0
    (List.length (Sup.wait sup ()));
  Sup.submit sup "slow";
  let cpu0 = Sys.time () in
  let rec collect acc =
    if Sup.running sup = 0 then acc
    else
      collect
        (List.map (fun (_, _, exit) -> exit) (Sup.wait sup ()) @ acc)
  in
  let ended = collect [] in
  let cpu = Sys.time () -. cpu0 in
  Sup.close sup;
  Alcotest.(check int) "both jobs ended" 2 (List.length ended);
  Alcotest.(check bool) "the retry returned as attempt 2" true
    (List.mem (Sup.Returned ("lost", 2)) ended);
  Alcotest.(check bool) "the parent waited without spinning" true
    (cpu < 0.5)

(* ------------------------------------------------------------------ *)
(* Graceful drain on SIGTERM                                           *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let k = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr k
       done
     with End_of_file -> ());
    close_in ic;
    !k
  end

let wait_for_lines path n deadline =
  let rec go () =
    if count_lines path >= n then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* SIGTERM a -j 2 run mid-corpus: the pool must stop dispatching, reap
   what is in flight, journal it, and exit 143 — leaving a journal a
   resumed run completes from. *)
let test_sigterm_drains_journal () =
  let path = Filename.temp_file "pool_drain" ".jsonl" in
  Sys.remove path;
  let battery =
    List.concat_map
      (fun n -> [ item (n ^ "/SB") (src "SB") (Some Exec.Check.Allow) ])
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let cfg = { P.default with P.jobs = 2; limits } in
  (* each item sleeps, so SIGTERM lands mid-corpus with items in flight *)
  let slow (it : R.item) =
    Unix.sleepf 0.15;
    normal_worker it
  in
  flush stdout;
  flush stderr;
  let child =
    match Unix.fork () with
    | 0 ->
        (* the drain path calls exit itself; 0 would mean it didn't *)
        (try ignore (P.run ~config:cfg ~worker:slow ~journal:path ~oracle battery)
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let got_two = wait_for_lines path 2 (Unix.gettimeofday () +. 20.) in
  Unix.kill child Sys.sigterm;
  let _, status = Unix.waitpid [] child in
  Alcotest.(check bool) "journal grew before the signal" true got_two;
  (match status with
  | Unix.WEXITED 143 -> ()
  | Unix.WEXITED n -> Alcotest.failf "expected exit 143, got %d" n
  | Unix.WSIGNALED s -> Alcotest.failf "died on signal %d instead of draining" s
  | Unix.WSTOPPED _ -> Alcotest.fail "stopped");
  (* every journalled line is a complete, well-formed entry *)
  let drained = J.load path in
  let n_drained = List.length drained in
  Alcotest.(check bool) "partial but non-empty journal" true
    (n_drained >= 2 && n_drained < List.length battery);
  List.iter
    (fun (e : R.entry) ->
      match e.R.status with
      | R.Pass _ -> ()
      | s -> Alcotest.failf "%s drained as %a" e.R.item_id R.pp_status s)
    drained;
  (* the journal resumes: only the missing items re-run, the report is
     the uninterrupted one *)
  let resumed = P.run ~config:cfg ~journal:path ~resume:path ~oracle battery in
  Alcotest.(check int) "all items reported" (List.length battery)
    (List.length resumed.R.entries);
  Alcotest.(check int) "all passed" (List.length battery) resumed.R.n_pass;
  Alcotest.(check int) "journal now complete" (List.length battery)
    (List.length (J.load path));
  Sys.remove path

let () =
  Alcotest.run "pool"
    [
      ( "isolation",
        [
          Alcotest.test_case "crash contained" `Quick test_crash_contained;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "watchdog kills loop" `Slow
            test_watchdog_kills_loop;
          Alcotest.test_case "mem cap contains OOM" `Slow
            test_mem_cap_contains_oom;
          Alcotest.test_case "mem cap charges the allocating item" `Quick
            test_mem_cap_charges_allocator;
        ] );
      ( "retry",
        [
          Alcotest.test_case "flaky crash retried" `Quick
            test_flaky_crash_retried;
          Alcotest.test_case "supervisor: job lost once" `Quick
            test_lost_once;
          Alcotest.test_case "supervisor: job lost twice" `Quick
            test_lost_twice;
          Alcotest.test_case "supervisor: a due retry waits" `Quick
            test_due_retry_waits;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drains and journal resumes" `Slow
            test_sigterm_drains_journal;
        ] );
      ( "policy",
        [
          Alcotest.test_case "crash beats error" `Quick
            test_crash_beats_error_exit_code;
          Alcotest.test_case "agrees with runner" `Quick
            test_agrees_with_runner;
        ] );
    ]
