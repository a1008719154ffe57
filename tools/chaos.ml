(* Fault-injection driver for the checking service (Harness.Serve) and
   the campaign orchestrator (Harness.Campaign).

     dune exec tools/chaos.exe -- --seconds 60 --seed 42
     dune exec tools/chaos.exe -- --campaign --camp-seeds 20000 --kills 6

   Service mode forks an lkserve daemon (chaos ops enabled, verdict
   cache journalled) and replays corpus tests at it while injecting
   every fault the service claims to survive:

   - chaos_kill / chaos_wedge requests that kill worker processes;
   - malformed, oversized and deadline-zero requests;
   - pipelined bursts past the admission queue bound;
   - kill -9 of the whole daemon, truncation of the cache journal at a
     random byte offset (a torn write), and restart.

   Every check response carrying a verdict is compared against ground
   truth computed in-process through the same Runner the batch tools
   use.  Acceptance: zero wrong verdicts, zero unexpected daemon
   deaths, every response inside the structured taxonomy, and at least
   one verdict served from the recovered cache after a restart.

   Campaign mode first runs a campaign uninterrupted (with injected
   poison and wedge seeds exercising the retry/bisect/quarantine
   ladder), then runs the same campaign while repeatedly kill -9ing
   the orchestrator mid-flight and tearing the manifest journal at a
   random byte offset before each resume.  Acceptance: the interrupted
   campaign converges and its mined report is byte-identical to the
   uninterrupted run's — zero lost or duplicated verdicts — with
   exactly the injected seeds quarantined.  Exits non-zero on any
   violation. *)

module S = Harness.Serve
module Pr = Harness.Proto
module R = Harness.Runner
module B = Exec.Budget
module J = Harness.Journal.Json

let usage =
  "chaos [--seconds N] [--seed N] [--corpus DIR] [--tests N] [--backend E]\n\
  \       chaos --campaign [--camp-seeds N] [--kills N] [--seed N]"

let seconds = ref 30.0
let seed = ref 42
let corpus_dir = ref "corpus"
let n_tests = ref 24
let campaign_mode = ref false
let camp_seeds = ref 6000
let kills = ref 6

(* engine for both the daemon and the in-process ground truth, so a
   sat soak cross-checks the symbolic backend against itself under
   fault injection (verdicts are engine-independent, so any engine's
   truth convicts any engine's daemon) *)
let backend = ref Exec.Oracle.default_backend

let () =
  let rec parse = function
    | [] -> ()
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--corpus" :: v :: rest ->
        corpus_dir := v;
        parse rest
    | "--tests" :: v :: rest ->
        n_tests := int_of_string v;
        parse rest
    | "--campaign" :: rest ->
        campaign_mode := true;
        parse rest
    | "--camp-seeds" :: v :: rest ->
        camp_seeds := int_of_string v;
        parse rest
    | "--kills" :: v :: rest ->
        kills := int_of_string v;
        parse rest
    | "--backend" :: v :: rest ->
        (backend :=
           match v with
           | "enum" -> Exec.Check.Enum
           | "sat" -> Exec.Check.Sat
           | _ ->
               prerr_endline ("chaos: unknown backend " ^ v);
               exit 124);
        parse rest
    | a :: _ ->
        prerr_endline ("chaos: unknown argument " ^ a ^ "\nusage: " ^ usage);
        exit 124
  in
  parse (List.tl (Array.to_list Sys.argv))

let rng = Random.State.make [| !seed |]
let pick l = List.nth l (Random.State.int rng (List.length l))

(* ------------------------------------------------------------------ *)
(* Ground truth                                                        *)
(* ------------------------------------------------------------------ *)

type truth = { name : string; source : string; verdict : string }

let ground_truth () =
  let files =
    Sys.readdir !corpus_dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".litmus")
  in
  if files = [] then begin
    prerr_endline ("chaos: no .litmus files in " ^ !corpus_dir);
    exit 124
  end;
  (* a seed-stable sample: shuffle by random keys, take the prefix *)
  let sample =
    files
    |> List.map (fun f -> (Random.State.bits rng, f))
    |> List.sort compare |> List.map snd
    |> List.filteri (fun i _ -> i < !n_tests)
  in
  let limits = B.limits ~timeout:10.0 () in
  let oracle = Lkmm.oracle in
  List.filter_map
    (fun f ->
      let source = R.read_file (Filename.concat !corpus_dir f) in
      let entry =
        R.run_item ~limits ~backend:!backend ~oracle
          { R.id = f; source = `Text source; expected = None }
      in
      match entry.R.status with
      | R.Pass Exec.Check.Allow -> Some { name = f; source; verdict = "Allow" }
      | R.Pass Exec.Check.Forbid ->
          Some { name = f; source; verdict = "Forbid" }
      | _ -> None (* non-deterministic under budget: useless as truth *))
    sample

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let socket = Filename.temp_file "chaos" ".sock"
let journal = Filename.temp_file "chaos" ".jsonl"

(* every daemon incarnation and each of its workers writes
   flight-<pid>.jsonl here; the post-run audit asserts each injected
   kill/wedge left a post-mortem naming it *)
let flight_dir =
  let d = Filename.temp_file "chaos" ".flight" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let config =
  {
    S.default with
    S.socket;
    workers = 2;
    queue_bound = 8;
    limits = B.limits ~timeout:2.0 ~max_candidates:200_000 ();
    default_timeout = 2.0;
    max_line = 1 lsl 16;
    wedge_grace = 0.4;
    cache_journal = Some journal;
    chaos_ops = true;
    backend = !backend;
    flight_dir = Some flight_dir;
    flight_interval = 0.2;
  }

(* Every span item mentioned by any checkpoint of any flight journal
   under [dir] — the set a post-mortem audit checks victims against.
   Torn tails are dropped by the tolerant reader, like any journal. *)
let flight_span_items dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter (fun f ->
             String.length f > 7 && String.sub f 0 7 = "flight-")
      |> List.concat_map (fun f ->
             Harness.Journal.load_json (Filename.concat dir f)
             |> List.concat_map (fun j ->
                    match J.mem "spans" j with
                    | Some (J.Arr spans) ->
                        List.filter_map
                          (fun s -> Option.bind (J.mem "item" s) J.str)
                          spans
                    | _ -> []))

(* The old path goes first: a worker the previous daemon forked just
   before its kill -9 holds the old listening socket until it closes
   its inherited descriptors, and a client connecting to the old path in
   that window is reset when it does.  The client reads such a reset as
   an unanswered request; unlinking keeps it from counting against the
   new daemon. *)
let start_daemon () =
  (try Sys.remove socket with Sys_error _ -> ());
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code = try S.run ~config () with _ -> 125 in
      Unix._exit code
  | pid -> pid

let connect_retry () =
  let stop = Unix.gettimeofday () +. 30. in
  let rec go () =
    match S.Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > stop then failwith "daemon did not come up"
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

(* Has the daemon died behind our back? *)
let daemon_alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* ------------------------------------------------------------------ *)
(* Scoreboard                                                          *)
(* ------------------------------------------------------------------ *)

let wrong_verdicts = ref 0
let daemon_deaths = ref 0
let unanswered = ref 0
let restart_hits = ref 0
let restarts = ref 0
let classes = Hashtbl.create 8
let actions = Hashtbl.create 8

(* trace ids of injected kills and wedges, each of which must be found
   in a flight checkpoint at the end of the run *)
let injected_traces = ref []
let inject_seq = ref 0

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let note_response action t_opt = function
  | Error e ->
      incr unanswered;
      Printf.eprintf "chaos: UNANSWERED %s: %s\n%!" action e
  | Ok (r : Pr.response) -> (
      bump classes (Pr.cls_name r.Pr.rsp_cls);
      match (t_opt, r.Pr.rsp_cls, r.Pr.rsp_verdict) with
      | Some t, (Pr.Ok_ | Pr.Fail), Some v when v <> t.verdict ->
          incr wrong_verdicts;
          Printf.eprintf "chaos: WRONG VERDICT %s: daemon says %s, truth %s\n%!"
            t.name v t.verdict
      | Some t, (Pr.Ok_ | Pr.Fail), None ->
          incr wrong_verdicts;
          Printf.eprintf "chaos: WRONG: completed class without verdict (%s)\n%!"
            t.name
      | _ -> () (* unknown / overloaded / error carry no verdict claim *))

(* ------------------------------------------------------------------ *)
(* Actions                                                             *)
(* ------------------------------------------------------------------ *)

let check_action truths ctl =
  let t = pick truths in
  bump actions "check";
  (* sometimes assert the truth, sometimes contradict it — the class
     must track the expectation either way *)
  let expected, want_cls =
    match Random.State.int rng 3 with
    | 0 -> (None, None)
    | 1 ->
        ( Some
            (if t.verdict = "Allow" then Exec.Check.Allow else Exec.Check.Forbid),
          Some Pr.Ok_ )
    | _ ->
        ( Some
            (if t.verdict = "Allow" then Exec.Check.Forbid else Exec.Check.Allow),
          Some Pr.Fail )
  in
  let r = S.Client.check ctl ?expected t.source in
  note_response "check" (Some t) r;
  match (r, want_cls) with
  | Ok rr, Some want
    when rr.Pr.rsp_cls <> want
         && (rr.Pr.rsp_cls = Pr.Ok_ || rr.Pr.rsp_cls = Pr.Fail) ->
      incr wrong_verdicts;
      Printf.eprintf "chaos: WRONG CLASS %s: got %s, wanted %s\n%!" t.name
        (Pr.cls_name rr.Pr.rsp_cls) (Pr.cls_name want)
  | _ -> ()

(* An overloaded rejection never reached a worker, so no checkpoint can
   name it; every other response means the job was dispatched at least
   once and the job-start checkpoint must have hit the flight journal
   before the worker died. *)
let note_injected trace = function
  | Ok (r : Pr.response) when r.Pr.rsp_cls <> Pr.Overloaded ->
      injected_traces := trace :: !injected_traces
  | _ -> ()

let kill_action ctl =
  bump actions "chaos_kill";
  incr inject_seq;
  let trace = Printf.sprintf "chaos-kill-%d" !inject_seq in
  let r = S.Client.chaos_kill ~trace ctl in
  note_injected trace r;
  note_response "chaos_kill" None r

let wedge_action ctl =
  bump actions "chaos_wedge";
  incr inject_seq;
  let trace = Printf.sprintf "chaos-wedge-%d" !inject_seq in
  let r = S.Client.chaos_wedge ~trace ctl (3.0 +. Random.State.float rng 5.0) in
  note_injected trace r;
  note_response "chaos_wedge" None r

let malformed_action ctl =
  bump actions "malformed";
  let garbage =
    pick
      [
        "{\"id\": \"m\", \"op\": ";
        "not json at all";
        "{\"op\": \"check\"}";
        "{\"id\": \"m\", \"op\": \"check\"}";
        "[1, 2, 3]";
        "{\"id\": \"m\", \"op\": \"nonsense\"}";
      ]
  in
  S.Client.send ctl garbage;
  note_response "malformed" None (S.Client.recv ctl)

let oversized_action ctl =
  bump actions "oversized";
  S.Client.send ctl
    ("{\"id\": \"big\", \"op\": \"check\", \"test\": \""
    ^ String.make (config.S.max_line + 1024) 'x');
  note_response "oversized" None (S.Client.recv ctl)

let deadline_zero_action truths ctl =
  bump actions "deadline_zero";
  let t = pick truths in
  note_response "deadline_zero" (Some t)
    (S.Client.check ctl ~timeout_ms:0 t.source)

(* Pipeline a burst past the queue bound on a dedicated connection; all
   must be answered (some overloaded), verdicts must stay correct. *)
let burst_action truths =
  bump actions "burst";
  let c = connect_retry () in
  let n = config.S.queue_bound * 2 in
  let sent =
    List.init n (fun i ->
        let t = pick truths in
        S.Client.send c
          (Pr.check_line ~id:(Printf.sprintf "b%d" i) t.source);
        (Printf.sprintf "b%d" i, t))
  in
  List.iter
    (fun _ ->
      match S.Client.recv c with
      | Error e ->
          incr unanswered;
          Printf.eprintf "chaos: UNANSWERED burst: %s\n%!" e
      | Ok r ->
          let t = List.assoc_opt r.Pr.rsp_id sent in
          note_response "burst" t (Ok r))
    sent;
  S.Client.close c

(* kill -9 the daemon, tear the cache journal, restart, and check that
   recovered verdicts (a) still serve and (b) are still right. *)
let restart_action truths pid =
  bump actions "restart";
  incr restarts;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (* tear the journal tail at a random offset (first restart keeps the
     file whole so at least one recovery is loss-free) *)
  let size =
    try (Unix.stat journal).Unix.st_size with Unix.Unix_error _ -> 0
  in
  if !restarts > 1 && size > 0 then begin
    let keep = Random.State.int rng (size + 1) in
    let fd = Unix.openfile journal [ Unix.O_WRONLY ] 0 in
    Unix.ftruncate fd keep;
    Unix.close fd
  end;
  let pid = start_daemon () in
  let ctl = connect_retry () in
  (* replay the whole truth sample: answers must be correct whether they
     come from the recovered cache or from a fresh check *)
  List.iter
    (fun t ->
      match S.Client.check ctl t.source with
      | Ok r ->
          note_response "post-restart" (Some t) (Ok r);
          if r.Pr.rsp_cache_hit = Some true then incr restart_hits
      | Error e ->
          incr unanswered;
          Printf.eprintf "chaos: UNANSWERED post-restart: %s\n%!" e)
    truths;
  (pid, ctl)

(* ------------------------------------------------------------------ *)
(* Campaign mode                                                       *)
(* ------------------------------------------------------------------ *)

module Camp = Harness.Campaign
module Mf = Harness.Manifest

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_whole path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* One orchestrator process: runs the campaign to completion (or until
   shot) and leaves the mined report next to the manifest. *)
let fork_orchestrator cfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        match Camp.run cfg with
        | Ok rep ->
            write_whole
              (Filename.concat cfg.Camp.dir "report.json")
              (Camp.report_to_json rep);
            if rep.Camp.totals.Camp.n_quarantined > 0 then 4 else 0
        | Error _ -> 120
        | exception _ -> 121
      in
      Unix._exit code
  | pid -> pid

(* A worker exits by itself within about a second of its
   orchestrator's death (Harness.Supervisor), so a kill -9 leaves no
   orphan behind for long.  The whole chaos tree still shares a process
   group, and this sweep is the safety net before exiting: anything that
   outlives its parent anyway — a worker stuck where no OCaml code runs,
   say — would hold stdout open. *)
let sweep_orphans () =
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  try Unix.kill (-(Unix.getpid ())) Sys.sigterm with Unix.Unix_error _ -> ()

let campaign_chaos () =
  ignore (Unix.alarm 1800);
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  let tmp = Filename.temp_file "chaos_campaign" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  (* a poison seed (worker crashes) and a wedge seed (worker hangs past
     its lease): both ladders must narrow to quarantined singletons, in
     the ground truth and under chaos alike *)
  let poison = !camp_seeds / 3 and wedge = 2 * !camp_seeds / 3 in
  let cfg dir =
    {
      Camp.default with
      Camp.dir;
      size = 4;
      seed_lo = 0;
      seed_hi = !camp_seeds;
      shard_size = max 8 (!camp_seeds / 24);
      jobs = 4;
      lease_timeout = 0.5;
      poison = [ poison ];
      wedge = [ wedge ];
      log = ignore;
    }
  in
  Printf.printf
    "chaos: campaign ground truth over %d seeds (poison %d, wedge %d)...\n%!"
    !camp_seeds poison wedge;
  let gt_dir = Filename.concat tmp "truth" in
  let gt =
    match Camp.run (cfg gt_dir) with
    | Ok rep -> Camp.report_to_json rep
    | Error e ->
        prerr_endline ("chaos: ground truth failed: " ^ e);
        exit 124
  in
  let ch_dir = Filename.concat tmp "chaos" in
  (* the chaos run flies with the recorder armed: the poison and wedge
     workers must leave post-mortems naming their victim seeds, and the
     orchestrator must journal live metrics alongside the manifest *)
  let ch_cfg =
    { (cfg ch_dir) with Camp.flight = true; metrics_interval = 0.25 }
  in
  let kills_done = ref 0 and truncations = ref 0 and resumes = ref 0 in
  let finished = ref false in
  while not !finished do
    incr resumes;
    let pid = fork_orchestrator ch_cfg in
    if !kills_done < !kills then begin
      Unix.sleepf (0.2 +. Random.State.float rng 2.0);
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          (* mid-flight: shoot the orchestrator (its workers become
             orphans and exit by themselves), then tear the manifest at
             a random byte offset — a torn write *)
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          incr kills_done;
          let mpath = Camp.manifest_path ch_dir in
          let size =
            try (Unix.stat mpath).Unix.st_size with Unix.Unix_error _ -> 0
          in
          if size > 0 then begin
            let keep = Random.State.int rng (size + 1) in
            let fd = Unix.openfile mpath [ Unix.O_WRONLY ] 0 in
            Unix.ftruncate fd keep;
            Unix.close fd;
            incr truncations;
            Printf.printf "chaos: kill -9 #%d, manifest torn %d -> %d\n%!"
              !kills_done size keep
          end
          else Printf.printf "chaos: kill -9 #%d (no manifest yet)\n%!"
                 !kills_done
      | _, Unix.WEXITED (0 | 4) -> finished := true
      | _, st ->
          Printf.eprintf "chaos: orchestrator died by itself (%s)\n%!"
            (match st with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
    end
    else begin
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED (0 | 4) -> finished := true
      | _, st ->
          Printf.eprintf "chaos: final run failed (%s)\n%!"
            (match st with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s);
          sweep_orphans ();
          rm_rf tmp;
          exit 1
    end
  done;
  let ch = read_whole (Filename.concat ch_dir "report.json") in
  let violations = ref [] in
  if ch <> gt then begin
    violations := "mined report diverged from uninterrupted run" :: !violations;
    Printf.eprintf "chaos: DIVERGED\n  truth: %s\n  chaos: %s\n%!" gt ch
  end;
  (match Mf.load (Camp.manifest_path ch_dir) with
  | Error e -> violations := ("manifest unreadable: " ^ e) :: !violations
  | Ok m ->
      let q =
        List.filter_map
          (fun (s : Mf.shard) ->
            match s.state with
            | Mf.Quarantined _ -> Some (s.lo, s.hi)
            | _ -> None)
          (Mf.shards m)
        |> List.sort compare
      in
      let expect =
        List.sort compare [ (poison, poison + 1); (wedge, wedge + 1) ]
      in
      if q <> expect then
        violations :=
          Printf.sprintf "quarantined %s, expected exactly the injected seeds"
            (String.concat ","
               (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) q))
          :: !violations);
  if !kills_done = 0 then
    violations := "campaign finished before any kill landed" :: !violations;
  (* flight audit: both injected worker deaths left post-mortems naming
     their seeds (each quarantine took several attempts; any one
     checkpoint naming the seed is evidence enough) *)
  let items = flight_span_items ch_dir in
  let wants =
    [ Printf.sprintf "seed:%d" poison; Printf.sprintf "seed:%d" wedge ]
  in
  let missing_pm = List.filter (fun w -> not (List.mem w items)) wants in
  if missing_pm <> [] then
    violations :=
      ("no post-mortem for injected " ^ String.concat ", " missing_pm)
      :: !violations;
  let snapshots =
    List.filter
      (fun j ->
        match Option.bind (J.mem "schema" j) J.str with
        | Some "lkmetrics-1" -> true
        | _ -> false)
      (Harness.Journal.load_json (Filename.concat ch_dir "metrics.jsonl"))
  in
  if snapshots = [] then
    violations := "no lkmetrics-1 snapshot journalled" :: !violations;
  sweep_orphans ();
  rm_rf tmp;
  Printf.printf
    "\nchaos: campaign over %d seeds: %d kills, %d manifest truncations, %d \
     resumes\n\
     report identical to uninterrupted run: %b (zero lost or duplicated \
     verdicts)\n\
     post-mortems: %d/2 injected worker deaths recovered; %d metrics \
     snapshots\n%!"
    !camp_seeds !kills_done !truncations !resumes (ch = gt)
    (2 - List.length missing_pm)
    (List.length snapshots);
  if !violations <> [] then begin
    Printf.eprintf "chaos: FAIL — %s\n%!" (String.concat "; " !violations);
    exit 1
  end;
  Printf.printf "chaos: PASS — campaign survives kill -9 and torn manifests\n%!";
  exit 0

(* ------------------------------------------------------------------ *)
(* Main loop (service mode)                                            *)
(* ------------------------------------------------------------------ *)

let () =
  if !campaign_mode then campaign_chaos ();
  (* a wedged driver is a failed run, not a hung CI job *)
  ignore (Unix.alarm (int_of_float !seconds * 3 + 120));
  Printf.printf "chaos: computing ground truth (%d tests)...\n%!" !n_tests;
  let truths = ground_truth () in
  Printf.printf "chaos: %d deterministic truths; running %.0fs with seed %d\n%!"
    (List.length truths) !seconds !seed;
  if List.length truths < 4 then begin
    prerr_endline "chaos: not enough deterministic tests to differentiate";
    exit 124
  end;
  (try Sys.remove journal with Sys_error _ -> ());
  let pid = ref (start_daemon ()) in
  let ctl = ref (connect_retry ()) in
  let stop_at = Unix.gettimeofday () +. !seconds in
  let last_restart = ref (Unix.gettimeofday ()) in
  while Unix.gettimeofday () < stop_at do
    if not (daemon_alive !pid) then begin
      incr daemon_deaths;
      Printf.eprintf "chaos: DAEMON DIED unexpectedly — restarting\n%!";
      pid := start_daemon ();
      ctl := connect_retry ()
    end;
    (* roughly every 8 wall seconds, a kill -9 + torn-journal restart *)
    if Unix.gettimeofday () -. !last_restart > 8.0 then begin
      let p, c = restart_action truths !pid in
      S.Client.close !ctl;
      pid := p;
      ctl := c;
      last_restart := Unix.gettimeofday ()
    end
    else begin
      match Random.State.int rng 100 with
      | n when n < 55 -> check_action truths !ctl
      | n when n < 65 -> kill_action !ctl
      | n when n < 72 -> wedge_action !ctl
      | n when n < 80 -> malformed_action !ctl
      | n when n < 86 -> oversized_action !ctl
      | n when n < 92 -> deadline_zero_action truths !ctl
      | _ -> burst_action truths
    end
  done;
  (* final health check and graceful shutdown *)
  let healthy =
    match S.Client.ping !ctl with Ok r -> r.Pr.rsp_cls = Pr.Ok_ | Error _ -> false
  in
  if not healthy then begin
    incr daemon_deaths;
    Printf.eprintf "chaos: daemon unresponsive at end of run\n%!"
  end;
  ignore (S.Client.shutdown !ctl);
  S.Client.close !ctl;
  let rec reap tries =
    if tries = 0 then begin
      Unix.kill !pid Sys.sigkill;
      ignore (Unix.waitpid [] !pid);
      incr daemon_deaths;
      prerr_endline "chaos: daemon did not drain on shutdown"
    end
    else
      match Unix.waitpid [ Unix.WNOHANG ] !pid with
      | 0, _ ->
          Unix.sleepf 0.1;
          reap (tries - 1)
      | _, Unix.WEXITED 0 -> ()
      | _, _ ->
          incr daemon_deaths;
          prerr_endline "chaos: daemon exited abnormally on shutdown"
  in
  reap 100;
  (* post-mortem audit: every dispatched kill/wedge must be named, by
     its trace id, in some checkpoint of some flight journal — the
     crash left readable evidence *)
  let items = flight_span_items flight_dir in
  let missing_pm =
    List.filter (fun tr -> not (List.mem tr items)) !injected_traces
  in
  let n_injected = List.length !injected_traces in
  List.iter
    (fun tr -> Printf.eprintf "chaos: NO POST-MORTEM for %s\n%!" tr)
    missing_pm;
  rm_rf flight_dir;
  (try Sys.remove journal with Sys_error _ -> ());
  (try Sys.remove socket with Sys_error _ -> ());
  let total = Hashtbl.fold (fun _ n acc -> n + acc) classes 0 in
  Printf.printf "\nchaos: %d responses over %d restarts\n" total !restarts;
  Hashtbl.iter (fun k n -> Printf.printf "  class %-12s %6d\n" k n) classes;
  Printf.printf "actions:\n";
  Hashtbl.iter (fun k n -> Printf.printf "  %-18s %6d\n" k n) actions;
  Printf.printf
    "wrong verdicts:      %d\n\
     unexpected deaths:   %d\n\
     unanswered:          %d\n\
     post-restart hits:   %d\n\
     post-mortems:        %d/%d dispatched kills/wedges recovered\n%!"
    !wrong_verdicts !daemon_deaths !unanswered !restart_hits
    (n_injected - List.length missing_pm)
    n_injected;
  let violations =
    (if !wrong_verdicts > 0 then [ "wrong verdicts" ] else [])
    @ (if !daemon_deaths > 0 then [ "daemon deaths" ] else [])
    @ (if !unanswered > 0 then [ "unanswered requests" ] else [])
    @ (if missing_pm <> [] then [ "missing post-mortems" ] else [])
    @
    if !restarts > 0 && !restart_hits = 0 then
      [ "no cache hit survived any restart" ]
    else []
  in
  if violations <> [] then begin
    Printf.eprintf "chaos: FAIL — %s\n%!" (String.concat ", " violations);
    exit 1
  end;
  Printf.printf "chaos: PASS — zero wrong verdicts, zero daemon deaths\n%!"
