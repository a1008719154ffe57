(* Tests for the experiment harness: the battery's integrity, the Table 5
   reproduction machinery, figures, sweeps and the RCU study. *)

let test_battery_parses () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      match Harness.Battery.test_of e with
      | t -> Alcotest.(check string) "name agrees" e.name t.Litmus.Ast.name
      | exception exn ->
          Alcotest.failf "%s does not parse: %s" e.name
            (Printexc.to_string exn))
    Harness.Battery.all

let test_battery_names_unique () =
  let names = List.map (fun (e : Harness.Battery.entry) -> e.name) Harness.Battery.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_table5_is_paper_shape () =
  let table5 = List.filter (fun e -> e.Harness.Battery.in_table5) Harness.Battery.all in
  Alcotest.(check int) "fifteen rows" 15 (List.length table5);
  (* paper order: LB first, RWC+mbs last *)
  Alcotest.(check string) "first row" "LB"
    (List.hd table5).Harness.Battery.name;
  Alcotest.(check string) "last row" "RWC+mbs"
    (List.nth table5 14).Harness.Battery.name;
  (* RCU rows have no C11 column *)
  List.iter
    (fun (e : Harness.Battery.entry) ->
      if Litmus.Ast.has_rcu (Harness.Battery.test_of e) then
        Alcotest.(check bool) (e.name ^ " has dash in C11 column") true
          (e.c11 = None))
    table5

let test_table5_row_generation () =
  let e = Harness.Battery.find "SB" in
  let row = Harness.Table5.row_of_entry ~runs:500 ~seed:1 e in
  Alcotest.(check int) "four architectures" 4
    (List.length row.Harness.Table5.hw);
  Alcotest.(check bool) "verdict matches paper" true
    (row.Harness.Table5.lk = row.Harness.Table5.lk_expected);
  List.iter
    (fun (_, m, t) ->
      Alcotest.(check bool) "counts within runs" true (m <= t && t <= 500))
    row.Harness.Table5.hw

let test_table5_shape_checker_detects () =
  (* feed the checker a doctored row and make sure it complains *)
  let e = Harness.Battery.find "SB+mbs" in
  let row = Harness.Table5.row_of_entry ~runs:200 ~seed:1 e in
  let doctored =
    { row with Harness.Table5.hw = [ ("Power8", 5, 200) ] }
  in
  Alcotest.(check bool) "forbidden-observed detected" true
    (Harness.Table5.shape_issues ~check_observed:false [ doctored ] <> []);
  let wrong_verdict = { row with Harness.Table5.lk = Exec.Check.Allow } in
  Alcotest.(check bool) "verdict mismatch detected" true
    (Harness.Table5.shape_issues ~check_observed:false [ wrong_verdict ]
    <> [])

let test_figures_cover_paper () =
  let ids = List.map (fun f -> f.Harness.Figures.id) Harness.Figures.all in
  Alcotest.(check (list string)) "all evaluation figures"
    [ "2"; "4"; "5"; "6"; "7"; "9"; "10"; "11"; "13"; "14" ]
    ids;
  Alcotest.(check (list string)) "verdicts match paper" []
    (Harness.Figures.issues ())

let test_sweep_classify () =
  let tests =
    List.map Harness.Battery.test_of
      [ Harness.Battery.find "MP"; Harness.Battery.find "MP+wmb+rmb" ]
  in
  let s = Harness.Sweep.classify ~archs:[ Hwsim.Arch.x86 ] ~runs:100 tests in
  Alcotest.(check int) "two tests" 2 s.Harness.Sweep.n_tests;
  Alcotest.(check int) "one allowed" 1 s.Harness.Sweep.lk_allow;
  Alcotest.(check int) "one forbidden" 1 s.Harness.Sweep.lk_forbid;
  Alcotest.(check int) "both SC-forbidden" 2 s.Harness.Sweep.sc_forbid;
  Alcotest.(check int) "no unsound cells" 0
    (List.length s.Harness.Sweep.unsound)

let test_strength_issues_on_battery () =
  Alcotest.(check (list string)) "battery respects strength ordering" []
    (Harness.Sweep.strength_issues
       (List.map Harness.Battery.test_of Harness.Battery.all))

let test_rcu_study_runs () =
  let r =
    Harness.Rcu_study.run_variant ~runs:60 ~seed:5 ~variant:Kir.Rcu_impl.Full
      (Harness.Battery.find "RCU-MP")
      Hwsim.Arch.x86
  in
  Alcotest.(check int) "no forbidden outcomes" 0 r.Harness.Rcu_study.matched;
  Alcotest.(check bool) "runs completed" true (r.Harness.Rcu_study.total > 0)

let test_rcu_study_issue_detection () =
  let fake =
    {
      Harness.Rcu_study.program = "RCU-MP+rcu-impl";
      arch = "X86";
      matched = 3;
      total = 100;
      aborted = 0;
    }
  in
  Alcotest.(check bool) "faithful violation flagged" true
    (Harness.Rcu_study.issues [ fake ] <> []);
  let broken_ok = { fake with Harness.Rcu_study.program = "RCU-MP+rcu-impl-no-wait" } in
  Alcotest.(check bool) "broken variants not flagged" true
    (Harness.Rcu_study.issues [ broken_ok ] = [])

(* ------------------------------------------------------------------ *)
(* Batch runner                                                        *)
(* ------------------------------------------------------------------ *)

module R = Harness.Runner
module B = Exec.Budget

let item id source expected = { R.id; source = `Text source; expected }
let src name = (Harness.Battery.find name).Harness.Battery.source

(* Whether [sub] occurs in the report text [json]. *)
let contains json sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
  in
  go 0

let test_runner_statuses () =
  let report =
    R.run
      [
        item "pass" (src "SB") (Some Exec.Check.Allow);
        item "fail" (src "SB") (Some Exec.Check.Forbid);
        item "parse-err" "C broken\n{ x=0;\nP0(int *x" None;
      ]
  in
  Alcotest.(check int) "n_pass" 1 report.R.n_pass;
  Alcotest.(check int) "n_fail" 1 report.R.n_fail;
  Alcotest.(check int) "n_error" 1 report.R.n_error;
  Alcotest.(check int) "n_gave_up" 0 report.R.n_gave_up;
  List.iter2
    (fun id (e : R.entry) ->
      Alcotest.(check string) "order preserved" id e.R.item_id)
    [ "pass"; "fail"; "parse-err" ]
    report.R.entries;
  (match (List.nth report.R.entries 2).R.status with
  | R.Err { cls = R.Parse; line = Some _; _ } -> ()
  | s -> Alcotest.failf "expected parse error: %s" (Fmt.str "%a" R.pp_status s));
  (* error beats fail in the exit code *)
  Alcotest.(check int) "exit code" 2 (R.exit_code report)

(* 2+2W's verdict stream holds four candidates (SB's holds one). *)
let test_runner_gave_up () =
  let limits = B.limits ~max_candidates:1 () in
  let report = R.run ~limits [ item "boom" (src "2+2W") None ] in
  Alcotest.(check int) "n_gave_up" 1 report.R.n_gave_up;
  (match (List.hd report.R.entries).R.status with
  | R.Gave_up (B.Too_many_candidates _) -> ()
  | s -> Alcotest.failf "expected gave-up: %s" (Fmt.str "%a" R.pp_status s));
  Alcotest.(check int) "exit code 3" 3 (R.exit_code report)

let test_runner_exit_precedence () =
  let limits = B.limits ~max_candidates:1 () in
  (* fail beats gave-up *)
  let r1 =
    R.run ~limits:B.unlimited
      [ item "fail" (src "SB") (Some Exec.Check.Forbid) ]
  in
  let r2 = R.run ~limits [ item "boom" (src "2+2W") None ] in
  Alcotest.(check int) "fail alone" 1 (R.exit_code r1);
  Alcotest.(check int) "gave-up alone" 3 (R.exit_code r2);
  (* precedence over a mixed report: fail beats gave-up *)
  let mixed =
    {
      R.entries = r1.R.entries @ r2.R.entries;
      n_pass = 0;
      n_fail = 1;
      n_error = 0;
      n_crash = 0;
      n_gave_up = 1;
      wall = r1.R.wall +. r2.R.wall;
    }
  in
  Alcotest.(check int) "fail beats gave-up" 1 (R.exit_code mixed)

let test_runner_lint () =
  (* unbalanced RCU lock is a lint error: classified, not checked *)
  let bad =
    "C lint\n{ x=0; }\nP0(int *x) {\n  rcu_read_lock();\n  WRITE_ONCE(x, 1);\n}\nexists (x=1)"
  in
  let report = R.run [ item "lint" bad None ] in
  match (List.hd report.R.entries).R.status with
  | R.Err { cls = R.Lint; _ } -> ()
  | s -> Alcotest.failf "expected lint error: %s" (Fmt.str "%a" R.pp_status s)

(* Every front end resolves model names through one table; the cache
   keys must not move, or journalled verdict caches go stale. *)
let test_model_names () =
  let module T = Harness.Model_table in
  let names =
    [ "lk"; "LKMM"; "linux"; "lk-cat"; "sc"; "tso"; "x86"; "c11"; "c11-psc";
      "rc11" ]
  in
  Alcotest.(check (list (pair string string)))
    "cache keys and display names"
    [
      ("lk", "LK"); ("lk", "LK"); ("lk", "LK"); ("lk-cat", "LK(cat)");
      ("sc", "SC"); ("tso", "TSO"); ("tso", "TSO"); ("c11", "C11");
      ("c11-psc", "C11+psc"); ("c11-psc", "C11+psc");
    ]
    (List.map
       (fun n ->
         let m = T.find n in
         (m.T.key, m.T.display))
       names);
  Alcotest.(check (list string)) "builtins name the same models"
    (List.map String.lowercase_ascii names)
    (List.map fst (T.builtins ()));
  Alcotest.check_raises "unknown name" (Failure "unknown model: nope")
    (fun () -> ignore (T.find "nope"))

let test_runner_json () =
  let report =
    R.run
      [ item "ok" (src "SB") None; item "bad" "not a litmus test" None ]
  in
  let json = R.to_json report in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("json has " ^ field) true (contains json field))
    [
      "\"total\""; "\"entries\""; "\"status\""; "\"pass\"";
      "\"error\""; "\"class\""; "\"exit_code\""; "\"wall_s\"";
    ]

(* Enum is the one default engine: an oracle call without [?backend],
   the daemon's and the campaign's default configs, and herd_lk's
   [--backend] left unset (its [--json] report on a corpus test) all
   name it. *)
let test_default_engine () =
  let sb = Harness.Battery.test_of (Harness.Battery.find "SB") in
  let engine r = Exec.Check.backend_to_string r.Exec.Check.backend in
  Alcotest.(check string) "Oracle.run" "enum"
    (engine (Exec.Oracle.run Lkmm.oracle sb));
  List.iter
    (fun r -> Alcotest.(check string) "Oracle.run_all" "enum" (engine r))
    (Exec.Oracle.run_all
       [ Lkmm.oracle; Exec.Oracle.of_model (module Models.C11) ]
       sb);
  Alcotest.(check string) "Campaign.default" "enum"
    (Exec.Check.backend_to_string Harness.Campaign.default.backend);
  Alcotest.(check string) "Serve.default" "enum"
    (Exec.Check.backend_to_string Harness.Serve.default.backend);
  let backend =
    match
      Cmdliner.Cmd.eval_value ~argv:[| "herd_lk" |]
        (Cmdliner.Cmd.v (Cmdliner.Cmd.info "herd_lk") Harness.Cli.backend_arg)
    with
    | Ok (`Ok b) -> b
    | _ -> Alcotest.fail "--backend left unset does not parse"
  in
  let dir =
    Option.get (List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ])
  in
  let json =
    R.to_json
      (R.run ~backend
         [
           {
             R.id = "AcqRR-Fre-MbdWW-Rfe.litmus";
             source = `File (Filename.concat dir "AcqRR-Fre-MbdWW-Rfe.litmus");
             expected = None;
           };
         ])
  in
  Alcotest.(check bool) "herd_lk --json names enum" true
    (contains json "\"backend\": \"enum\"")

(* The acceptance scenario: an explosive generated test and a corrupted
   corpus file both complete under the runner — Unknown/Error entries,
   no run exceeding its wall-clock budget by more than 2x. *)
let test_runner_acceptance () =
  let rng = Random.State.make [| 7; 2018 |] in
  let big =
    Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:3 7
  in
  let corrupted =
    (* a battery source with its tail torn off mid-instruction *)
    let s = src "IRIW+mbs" in
    String.sub s 0 (String.length s * 2 / 3)
  in
  let timeout = 1.0 in
  let limits = B.limits ~timeout ~max_candidates:5_000 () in
  let items =
    List.mapi (fun i t -> { R.id = Printf.sprintf "gen%d" i;
                            source = `Ast t; expected = None }) big
    @ [ item "corrupted" corrupted None ]
  in
  let report = R.run ~limits items in
  Alcotest.(check int) "all items reported" (List.length items)
    (List.length report.R.entries);
  Alcotest.(check int) "nothing crashed the batch" 0
    (List.length
       (List.filter
          (fun (e : R.entry) ->
            match e.R.status with
            | R.Err { cls = R.Internal; _ } -> true
            | _ -> false)
          report.R.entries));
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check bool) (e.R.item_id ^ " within 2x budget") true
        (e.R.time <= 2.0 *. timeout))
    report.R.entries;
  (* the corrupted file is an Error entry, not a crash *)
  match (List.nth report.R.entries 3).R.status with
  | R.Err { cls = R.Parse | R.Lex; _ } -> ()
  | s -> Alcotest.failf "corrupted file: %s" (Fmt.str "%a" R.pp_status s)

let () =
  Alcotest.run "harness"
    [
      ( "battery",
        [
          Alcotest.test_case "all parse" `Quick test_battery_parses;
          Alcotest.test_case "unique names" `Quick test_battery_names_unique;
          Alcotest.test_case "table5 shape" `Quick test_table5_is_paper_shape;
        ] );
      ( "table5",
        [
          Alcotest.test_case "row generation" `Quick
            test_table5_row_generation;
          Alcotest.test_case "shape checker" `Quick
            test_table5_shape_checker_detects;
        ] );
      ( "figures",
        [ Alcotest.test_case "coverage" `Quick test_figures_cover_paper ] );
      ( "sweep",
        [
          Alcotest.test_case "classify" `Quick test_sweep_classify;
          Alcotest.test_case "strength on battery" `Quick
            test_strength_issues_on_battery;
        ] );
      ( "runner",
        [
          Alcotest.test_case "statuses" `Quick test_runner_statuses;
          Alcotest.test_case "gave up" `Quick test_runner_gave_up;
          Alcotest.test_case "exit precedence" `Quick
            test_runner_exit_precedence;
          Alcotest.test_case "lint" `Quick test_runner_lint;
          Alcotest.test_case "model names" `Quick test_model_names;
          Alcotest.test_case "json" `Quick test_runner_json;
          Alcotest.test_case "default engine" `Quick test_default_engine;
          Alcotest.test_case "acceptance" `Slow test_runner_acceptance;
        ] );
      ( "rcu-study",
        [
          Alcotest.test_case "runs" `Quick test_rcu_study_runs;
          Alcotest.test_case "issue detection" `Quick
            test_rcu_study_issue_detection;
        ] );
    ]
