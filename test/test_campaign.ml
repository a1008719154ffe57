(* Tests for Harness.Campaign and Harness.Manifest: the campaign
   orchestrator must survive a kill -9 at *every* byte offset of its
   manifest journal — resuming from any truncated prefix must converge
   to a mined report byte-identical to an uninterrupted run's — and the
   failure ladder must narrow injected poison down to quarantined
   singleton shards without disturbing any other verdict.  Also here:
   the verdict cache's startup compaction (shares the journal
   machinery). *)

module M = Harness.Manifest
module C = Harness.Campaign
module J = Harness.Journal

let tmpdir () =
  let d = Filename.temp_file "campaign_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A deliberately tiny campaign: 3 shards, native model only, pure
   candidate/event budgets — fast enough to resume hundreds of times,
   deterministic enough that every resume must agree to the byte. *)
let config ?(seeds = (0, 12)) ?(shard = 4) ?(models = [ "lk" ]) ?(jobs = 2)
    ?(poison = []) ?(wedge = []) ?(lease = 60.) ?(flight = false) dir =
  {
    C.default with
    C.dir;
    size = 4;
    seed_lo = fst seeds;
    seed_hi = snd seeds;
    shard_size = shard;
    jobs;
    models;
    limits = Exec.Budget.limits ~max_events:128 ~max_candidates:10_000 ();
    reduced = Exec.Budget.limits ~max_events:64 ~max_candidates:1_000 ();
    lease_timeout = lease;
    poison;
    wedge;
    flight;
    log = ignore;
  }

let run_json cfg =
  match C.run cfg with
  | Ok rep -> C.report_to_json rep
  | Error e -> Alcotest.failf "campaign run: %s" e

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let test_manifest_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "m.jsonl" in
  let spec = { M.size = 4; seed_lo = 0; seed_hi = 10; shard_size = 4 } in
  let m = M.create path spec in
  Alcotest.(check int) "initial shards" 3 (List.length (M.shards m));
  M.record m (M.Lease { lo = 0; hi = 4; since = 1. });
  M.record m (M.Requeue { lo = 0; hi = 4 });
  M.record m (M.Split { lo = 4; hi = 8; mid = 6 });
  let summary =
    {
      M.n_seeds = 2;
      n_tests = 1;
      n_unknown = 0;
      counts = [ ("lk:Allow", 1) ];
      rows =
        [
          {
            M.seed = 9;
            test = "T";
            verdicts = [ ("lk", "Forbid"); ("c11", "Allow") ];
            kinds = [ "lk-vs-c11" ];
          };
        ];
      rows_dropped = 0;
      time_s = 0.5;
    }
  in
  M.record m (M.Completed { lo = 8; hi = 10; summary });
  M.record m
    (M.Quarantine { lo = 4; hi = 6; attempts = 2; error = "exit 42" });
  M.close m;
  (match M.load path with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      let shards = M.shards m' in
      Alcotest.(check int) "after split" 4 (List.length shards);
      let find lo hi =
        List.find (fun (s : M.shard) -> s.lo = lo && s.hi = hi) shards
      in
      (match (find 0 4).state with
      | M.Pending -> ()
      | _ -> Alcotest.fail "s0-4 should be pending after requeue");
      (match (find 4 6).state with
      | M.Quarantined { attempts = 2; error = "exit 42" } -> ()
      | _ -> Alcotest.fail "s4-6 should be quarantined");
      (match (find 8 10).state with
      | M.Done s ->
          Alcotest.(check int) "summary tests" 1 s.M.n_tests;
          let r = List.hd s.M.rows in
          Alcotest.(check (list string)) "row kinds" [ "lk-vs-c11" ] r.M.kinds;
          Alcotest.(check (list (pair string string)))
            "row verdicts"
            [ ("lk", "Forbid"); ("c11", "Allow") ]
            r.M.verdicts
      | _ -> Alcotest.fail "s8-10 should be done"));
  rm_rf dir

let test_manifest_spec_mismatch () =
  let dir = tmpdir () in
  let path = Filename.concat dir "m.jsonl" in
  let spec = { M.size = 4; seed_lo = 0; seed_hi = 10; shard_size = 4 } in
  M.close (M.create path spec);
  (match M.open_ path { spec with M.seed_hi = 20 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "spec mismatch must be refused");
  (match M.open_ path spec with
  | Ok m -> M.close m
  | Error e -> Alcotest.fail e);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Kill the orchestrator at every manifest byte offset                 *)
(* ------------------------------------------------------------------ *)

(* Ground truth once, uninterrupted.  Then, for every prefix of the
   final manifest — as if the orchestrator died exactly there and its
   shard journals were lost too — resume in a fresh directory and
   demand the byte-identical mined report.  This subsumes torn lines
   (offsets inside a line), lost leases (prefix ends at a lease),
   manifests reduced to their header, and the empty file. *)
let test_resume_at_every_offset () =
  let gt_dir = tmpdir () in
  let gt = run_json (config gt_dir) in
  let manifest = read_file (C.manifest_path gt_dir) in
  let n = String.length manifest in
  Alcotest.(check bool) "manifest non-trivial" true (n > 200);
  for cut = 0 to n do
    let dir = tmpdir () in
    write_file (C.manifest_path dir) (String.sub manifest 0 cut);
    let got = run_json (config dir) in
    if got <> gt then
      Alcotest.failf "resume from offset %d/%d diverged:\n%s\n  vs\n%s" cut n
        got gt;
    rm_rf dir
  done;
  rm_rf gt_dir

(* Same property through a real kill -9: fork the orchestrator, shoot
   it mid-flight (leaving orphaned workers and half-written journals),
   then resume in-process. *)
let test_resume_after_sigkill () =
  let gt_dir = tmpdir () in
  let gt = run_json (config ~seeds:(0, 60) ~shard:8 gt_dir) in
  let dir = tmpdir () in
  let cfg = config ~seeds:(0, 60) ~shard:8 dir in
  (match Unix.fork () with
  | 0 ->
      (match C.run cfg with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.sleepf 0.05;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid));
  Alcotest.(check string) "resumed = uninterrupted" gt (run_json cfg);
  rm_rf dir;
  rm_rf gt_dir

(* A manifest in the previous line format — leases with an attempt and
   a worker pid, a requeue with [failed] — still replays, and resumes to
   the uninterrupted report; the pids name no process of ours and are
   left alone. *)
let test_old_manifest_resumes () =
  let gt_dir = tmpdir () in
  let gt = run_json (config gt_dir) in
  let lines =
    String.split_on_char '\n' (read_file (C.manifest_path gt_dir))
  in
  let starts p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let done_4_8 = List.find (starts "{\"ev\": \"done\", \"lo\": 4,") lines in
  let dir = tmpdir () in
  write_file (C.manifest_path dir)
    (String.concat "\n"
       [
         List.hd lines;
         "{\"ev\": \"lease\", \"lo\": 0, \"hi\": 4, \"attempt\": 1, \"pid\": \
          1, \"since\": 1.000}";
         "{\"ev\": \"requeue\", \"lo\": 0, \"hi\": 4, \"failed\": true}";
         "{\"ev\": \"lease\", \"lo\": 0, \"hi\": 4, \"attempt\": 2, \"pid\": \
          1, \"since\": 2.000}";
         "{\"ev\": \"lease\", \"lo\": 4, \"hi\": 8, \"attempt\": 1, \"pid\": \
          1, \"since\": 3.000}";
         done_4_8;
         "{\"ev\": \"lease\", \"lo\": 8, \"hi\": 12, \"attempt\": 1, \"pid\": \
          1, \"since\": 4.000}";
         "";
       ]);
  (match M.load (C.manifest_path dir) with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check (list string))
        "states replayed" [ "leased"; "done"; "leased" ]
        (List.map
           (fun (s : M.shard) ->
             match s.state with
             | M.Leased _ -> "leased"
             | M.Done _ -> "done"
             | M.Pending -> "pending"
             | M.Quarantined _ -> "quarantined")
           (M.shards m)));
  Alcotest.(check string) "resumed = uninterrupted" gt (run_json (config dir));
  rm_rf dir;
  rm_rf gt_dir

(* A worker outlives no orchestrator: kill -9 the orchestrator while a
   worker is wedged in a seed, and every worker that left a flight file
   exits by itself within 3 s (a zombie, where nothing reaps it, has
   exited too). *)
let test_orphans_exit () =
  let dir = tmpdir () in
  let wedge = 5 in
  let cfg = config ~wedge:[ wedge ] ~flight:true dir in
  flush stdout;
  flush stderr;
  let orchestrator =
    match Unix.fork () with
    | 0 ->
        (match C.run cfg with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let flights () =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           try Scanf.sscanf f "flight-%d.jsonl%!" (fun pid -> Some (f, pid))
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let needle = Printf.sprintf "\"seed:%d\"" wedge in
  let names_wedge (f, _) =
    let text = read_file (Filename.concat dir f) in
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length text
      && (String.sub text i n = needle || scan (i + 1))
    in
    scan 0
  in
  let rec await deadline =
    if List.exists names_wedge (flights ()) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      await deadline
    end
  in
  let wedged = await (Unix.gettimeofday () +. 20.) in
  Unix.kill orchestrator Sys.sigkill;
  ignore (Unix.waitpid [] orchestrator);
  Alcotest.(check bool) "a flight file names the wedged seed" true wedged;
  let gone pid =
    match
      In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
        In_channel.input_all
    with
    | exception Sys_error _ -> true
    | stat ->
        (* the state follows the parenthesised command name *)
        let i = String.rindex stat ')' in
        stat.[i + 2] = 'Z'
  in
  let pids = List.map snd (flights ()) in
  let rec settle deadline =
    if List.for_all gone pids || Unix.gettimeofday () > deadline then ()
    else begin
      Unix.sleepf 0.05;
      settle deadline
    end
  in
  settle (Unix.gettimeofday () +. 3.);
  List.iter
    (fun pid ->
      if not (gone pid) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        Alcotest.failf "worker %d outlived its orchestrator by 3 s" pid
      end)
    pids;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Failure ladder: poison and wedge                                    *)
(* ------------------------------------------------------------------ *)

let quarantined_ranges json_dir =
  match M.load (C.manifest_path json_dir) with
  | Error e -> Alcotest.fail e
  | Ok m ->
      List.filter_map
        (fun (s : M.shard) ->
          match s.state with
          | M.Quarantined _ -> Some (s.lo, s.hi)
          | _ -> None)
        (M.shards m)

(* The mined patterns section, for comparisons that should ignore shard
   structure (splits change n_shards but must not change verdicts). *)
let patterns_part json =
  let needle = "\"patterns\":" in
  let rec find i =
    if i + String.length needle > String.length json then
      Alcotest.fail "report has no patterns member"
    else if String.sub json i (String.length needle) = needle then
      String.sub json i (String.length json - i)
    else find (i + 1)
  in
  find 0

let test_poison_quarantine () =
  let gt_dir = tmpdir () in
  let gt =
    run_json (config ~seeds:(0, 100) ~shard:16 ~models:[ "lk"; "c11" ] gt_dir)
  in
  let dir = tmpdir () in
  let cfg =
    config ~seeds:(0, 100) ~shard:16 ~models:[ "lk"; "c11" ] ~poison:[ 37 ]
      dir
  in
  let poisoned =
    match C.run cfg with
    | Error e -> Alcotest.fail e
    | Ok rep ->
        Alcotest.(check int) "one quarantined shard" 1
          rep.C.totals.C.n_quarantined;
        Alcotest.(check (list (pair int int)))
          "exactly the poison singleton"
          [ (37, 38) ]
          (quarantined_ranges dir);
        C.report_to_json rep
  in
  (* seed 37 contributes no disagreement row in the ground truth, so
     every mined pattern must survive the quarantine untouched *)
  Alcotest.(check string)
    "patterns unchanged by quarantine" (patterns_part gt)
    (patterns_part poisoned);
  (* resuming a finished campaign re-mines the identical report *)
  Alcotest.(check string) "resume is idempotent" poisoned (run_json cfg);
  rm_rf dir;
  rm_rf gt_dir

let test_wedge_lease_expiry () =
  let dir = tmpdir () in
  let cfg =
    config ~seeds:(0, 4) ~shard:2 ~jobs:1 ~wedge:[ 1 ] ~lease:0.2 dir
  in
  (match C.run cfg with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check int) "wedge quarantined" 1 rep.C.totals.C.n_quarantined;
      (match rep.C.quarantined with
      | [ sh ] -> (
          Alcotest.(check (pair int int)) "the wedged singleton" (1, 2)
            (sh.M.lo, sh.M.hi);
          match sh.M.state with
          | M.Quarantined { error = "lease expired"; _ } -> ()
          | _ -> Alcotest.fail "expected lease-expired quarantine")
      | _ -> Alcotest.fail "expected exactly one quarantined shard"));
  rm_rf dir

(* The orchestrator waits only on its own workers: a child the caller
   started before the campaign, and which exits while it runs, is still
   the caller's to reap afterwards. *)
let test_foreign_child_untouched () =
  let pid =
    Unix.create_process "sleep" [| "sleep"; "0.05" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  let dir = tmpdir () in
  ignore (run_json (config ~seeds:(0, 40_000) ~shard:5_000 dir));
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "the caller's child did not exit cleanly"
  | exception Unix.Unix_error (e, _, _) ->
      Alcotest.failf "the campaign reaped the caller's child: %s"
        (Unix.error_message e));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Disagreement analysis                                               *)
(* ------------------------------------------------------------------ *)

let test_kinds () =
  Alcotest.(check (list string))
    "implementation split" [ "native-vs-cat" ]
    (C.kinds_of_verdicts [ ("lk", "Allow"); ("cat", "Forbid") ]);
  Alcotest.(check (list string))
    "hw unsound + c11 gap"
    [ "hw-unsound:Power8"; "lk-vs-c11" ]
    (C.kinds_of_verdicts
       [ ("lk", "Forbid"); ("c11", "Allow"); ("hw:Power8", "obs") ]);
  Alcotest.(check (list string))
    "agreement is no kind" []
    (C.kinds_of_verdicts
       [ ("lk", "Allow"); ("cat", "Allow"); ("c11", "Allow") ]);
  Alcotest.(check (list string))
    "unknown never disagrees" []
    (C.kinds_of_verdicts [ ("lk", "Unknown"); ("c11", "Allow") ]);
  Alcotest.(check (list string))
    "hw observation of allowed is sound" []
    (C.kinds_of_verdicts [ ("lk", "Allow"); ("hw:ARMv7", "obs") ]);
  Alcotest.(check int) "severity order" 0 (C.severity_of_kind "native-vs-cat");
  Alcotest.(check int) "hw severity" 1 (C.severity_of_kind "hw-unsound:Power8");
  Alcotest.(check int) "c11 severity" 2 (C.severity_of_kind "lk-vs-c11")

(* ------------------------------------------------------------------ *)
(* Vcache startup compaction (satellite)                               *)
(* ------------------------------------------------------------------ *)

let entry id =
  {
    Harness.Report.item_id = id;
    status = Harness.Report.Pass Exec.Check.Allow;
    time = 0.1;
    n_candidates = 3;
    retried = false;
    result = None;
  }

let count_lines path =
  let n = ref 0 in
  J.iter_lines path (fun _ -> incr n);
  !n

let test_vcache_compaction () =
  let dir = tmpdir () in
  let path = Filename.concat dir "vcache.jsonl" in
  (* three live bindings... *)
  let c = Harness.Vcache.create ~journal:path () in
  List.iter (fun k -> Harness.Vcache.store c k (entry k)) [ "a"; "b"; "c" ];
  Harness.Vcache.close c;
  (* ...then simulate restart churn: duplicates, garbage, a torn tail *)
  let lines = String.split_on_char '\n' (String.trim (read_file path)) in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  output_string oc "not json at all\n";
  output_string oc "{\"vkey\": \"torn";
  close_out oc;
  Alcotest.(check bool) "journal bloated" true (count_lines path > 3);
  (* below the threshold: no rewrite *)
  let c = Harness.Vcache.create ~journal:path ~compact_threshold:1000 () in
  Alcotest.(check int) "all bindings live" 3 (Harness.Vcache.size c);
  Harness.Vcache.close c;
  Alcotest.(check bool) "untouched below threshold" true (count_lines path > 3);
  (* at the threshold: compacted to exactly the live set *)
  let c = Harness.Vcache.create ~journal:path ~compact_threshold:4 () in
  Alcotest.(check int) "bindings survive compaction" 3 (Harness.Vcache.size c);
  Harness.Vcache.close c;
  Alcotest.(check int) "file rewritten to live set" 3 (count_lines path);
  (* and the compacted file still recovers *)
  let c = Harness.Vcache.create ~journal:path () in
  Alcotest.(check int) "recovered after compaction" 3 (Harness.Vcache.size c);
  Alcotest.(check bool) "binding content survives" true
    (Harness.Vcache.find c "b" <> None);
  Harness.Vcache.close c;
  rm_rf dir

let () =
  Alcotest.run "campaign"
    [
      ( "manifest",
        [
          Alcotest.test_case "event round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "spec mismatch refused" `Quick
            test_manifest_spec_mismatch;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "resume at every byte offset" `Slow
            test_resume_at_every_offset;
          Alcotest.test_case "resume after kill -9" `Quick
            test_resume_after_sigkill;
          Alcotest.test_case "old manifest format resumes" `Quick
            test_old_manifest_resumes;
          Alcotest.test_case "orphaned workers exit by themselves" `Quick
            test_orphans_exit;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "poison bisected to quarantine" `Slow
            test_poison_quarantine;
          Alcotest.test_case "wedge trips the lease" `Slow
            test_wedge_lease_expiry;
          Alcotest.test_case "caller's children untouched" `Quick
            test_foreign_child_untouched;
        ] );
      ( "mining",
        [ Alcotest.test_case "disagreement kinds" `Quick test_kinds ] );
      ( "vcache",
        [
          Alcotest.test_case "startup compaction" `Quick
            test_vcache_compaction;
        ] );
    ]
