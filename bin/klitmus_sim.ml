(* klitmus_sim: run litmus tests on the simulated architectures — the
   repository's stand-in for the paper's klitmus kernel modules.

     klitmus_sim -b SB -runs 20000             # a built-in battery test
     klitmus_sim -arch Power8,X86 test.litmus  # specific architectures
     klitmus_sim -check -b MP                  # also verify soundness
     klitmus_sim -stable -b SB                 # retry until the histogram
                                               # converges (fresh seeds)

   Soundness checks enumerate model outcomes, which can explode; with
   --timeout/--max-candidates the check degrades to "soundness unknown"
   instead of hanging.  Errors are classified (parse/lex/...), and the
   exit code follows the unified report policy: 0 ok, 1 unsound
   (hw/model disagreement), 2 error, 3 budget.  With --json the
   progress output moves to stderr and stdout carries the unified
   report. *)

open Cmdliner

let run_one ppf archs runs seed check stable limits test =
  let errors = ref 0 and budget_outs = ref 0 in
  let budget_reason = ref None in
  Fmt.pf ppf "Test %s:@." test.Litmus.Ast.name;
  List.iter
    (fun arch ->
      let s, convergence =
        if stable then begin
          let st = Hwsim.run_test_stable arch ~seed test in
          (* a non-converged histogram is a reproducibility problem:
             print the exact per-batch seed set so the run can be
             replayed and extended *)
          if not st.Hwsim.converged then
            Fmt.pf ppf "  %-7s NOT converged after %d batches; seeds used: %s@."
              st.Hwsim.stats.Hwsim.arch st.Hwsim.batches
              (String.concat ","
                 (List.map string_of_int st.Hwsim.seeds));
          ( st.Hwsim.stats,
            Some
              (Printf.sprintf "%s after %d batches"
                 (if st.Hwsim.converged then "converged" else "NOT converged")
                 st.Hwsim.batches) )
        end
        else (Hwsim.run_test arch ~runs ~seed test, None)
      in
      Fmt.pf ppf "  %-7s condition matched %d/%d%s@." s.Hwsim.arch
        s.Hwsim.matched s.Hwsim.total
        (match convergence with Some c -> " (" ^ c ^ ")" | None -> "");
      if check then
        match Hwsim.soundness ?limits Lkmm.oracle test s with
        | Hwsim.Sound ->
            Fmt.pf ppf "  %-7s sound w.r.t. the LK model@." s.Hwsim.arch
        | Hwsim.Unsound bad ->
            incr errors;
            List.iter
              (fun (o, n) ->
                Fmt.pf ppf "  %-7s UNSOUND outcome %a (%d times)@." s.Hwsim.arch
                  Exec.pp_outcome o n)
              bad
        | Hwsim.Soundness_unknown r ->
            incr budget_outs;
            budget_reason := Some r;
            Fmt.pf ppf "  %-7s soundness unknown: %s@." s.Hwsim.arch
              (Exec.Budget.reason_to_string r))
    archs;
  (!errors, !budget_outs, !budget_reason)

let main archs runs seed check stable timeout max_candidates journal resume
    json trace metrics files builtin =
  Harness.Cli.with_obs ~trace ~metrics @@ fun () ->
  let module R = Harness.Runner in
  let module J = Harness.Journal in
  (* with --json, stdout carries the report; progress moves to stderr *)
  let ppf = if json then Fmt.stderr else Fmt.stdout in
  let archs =
    match archs with
    | [] -> Hwsim.Arch.table5
    | names ->
        List.map
          (fun n ->
            try Hwsim.Arch.find n
            with Not_found -> failwith ("unknown architecture: " ^ n))
          names
  in
  let limits =
    let l = Exec.Budget.limits ?timeout ?max_candidates () in
    if Exec.Budget.is_unlimited l then None else Some l
  in
  (* resume: tests already journalled are completion-marked and skipped;
     their recorded classification still feeds the exit code *)
  let recycled = Hashtbl.create 16 in
  (match resume with
  | Some p ->
      List.iter
        (fun (e : R.entry) -> Hashtbl.replace recycled e.R.item_id e)
        (J.load p)
  | None -> ());
  let writer = Option.map J.open_writer journal in
  let t_start = Unix.gettimeofday () in
  let entries = ref [] in
  let add (e : R.entry) =
    entries := e :: !entries;
    Option.iter (fun w -> J.write w e) writer
  in
  let run_test id test =
    match Hashtbl.find_opt recycled id with
    | Some e ->
        Fmt.pf ppf "Test %s: recycled from journal (%a)@." id R.pp_status
          e.R.status;
        entries := e :: !entries
    | None ->
        let t0 = Unix.gettimeofday () in
        let e, b, reason =
          Obs.with_span ~item:id "item" (fun () ->
              run_one ppf archs runs seed check stable limits test)
        in
        (* the journalled classification mirrors the exit-code policy:
           unsound = disagreement (fail), budget = gave up, else done *)
        let status =
          if e > 0 then
            R.Fail { expected = Exec.Check.Forbid; got = Exec.Check.Allow }
          else
            match reason with
            | Some r when b > 0 -> R.Gave_up r
            | _ -> R.Pass Exec.Check.Allow
        in
        add
          {
            R.item_id = id;
            status;
            time = Unix.gettimeofday () -. t0;
            n_candidates = 0;
            retried = false;
            result = None;
          }
  in
  (match builtin with
  | Some name ->
      run_test name
        (Litmus.parse (Harness.Battery.find name).Harness.Battery.source)
  | None -> ());
  List.iter
    (fun path ->
      (* per-file fault isolation: a malformed file is reported and the
         batch continues *)
      match Litmus.parse (Harness.Runner.read_file path) with
      | test -> run_test path test
      | exception exn ->
          let err = Harness.Runner.classify_exn exn in
          add
            {
              R.item_id = path;
              status = R.Err err;
              time = 0.;
              n_candidates = 0;
              retried = false;
              result = None;
            };
          Fmt.epr "klitmus_sim: %s: %a@." path Harness.Runner.pp_error err)
    files;
  Option.iter J.close writer;
  if files = [] && builtin = None then
    Fmt.pf ppf "no tests given; try: klitmus_sim -b SB@.";
  let report =
    Harness.Report.summarise
      ~wall:(Unix.gettimeofday () -. t_start)
      (List.rev !entries)
  in
  if json then print_string (Harness.Report.to_json report ^ "\n");
  Harness.Report.exit_code report

let archs_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "arch"; "a" ] ~docv:"ARCHS"
        ~doc:
          "Comma-separated architectures (SC, X86, ARMv7, ARMv8, Power8, \
           Alpha); default: the Table 5 set.")

let runs_arg =
  Arg.(value & opt int 10_000 & info [ "runs"; "n" ] ~doc:"Runs per test.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Check every observed outcome is allowed by the LK model.")

let stable_arg =
  Arg.(
    value & flag
    & info [ "stable" ]
        ~doc:
          "Retry-until-stable sampling: re-run in batches with fresh seeds \
           until the outcome histogram converges (distinguishes 'weak \
           outcome genuinely unobserved' from 'not enough samples').")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "battery" ] ~docv:"NAME" ~doc:"Run a built-in battery test.")

let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"TEST.litmus")

let cmd =
  let module C = Harness.Cli in
  Cmd.v
    (Cmd.info "klitmus_sim"
       ~doc:"Run litmus tests on simulated weak-memory hardware"
       ~exits:C.exit_infos)
    Term.(
      const main $ archs_arg $ runs_arg $ seed_arg $ check_arg $ stable_arg
      $ C.timeout_arg $ C.max_candidates_arg $ C.journal_arg $ C.resume_arg
      $ C.json_arg $ C.trace_arg $ C.metrics_arg $ files_arg
      $ builtin_arg)

let () = Harness.Cli.eval ~name:"klitmus_sim" cmd
