(* herd_lk: run litmus tests against a consistency model — the repository's
   herd7 equivalent.

     herd_lk test.litmus                 # LK model (native)
     herd_lk -model c11 test.litmus      # a shipped model
     herd_lk -model my.cat test.litmus   # any cat file
     herd_lk -v test.litmus              # verdict + explanation (--explain)
     herd_lk -outcomes test.litmus       # all observable outcomes
     herd_lk --timeout 5 huge.litmus     # budgeted: Unknown, not a hang
     herd_lk --json *.litmus             # machine-readable batch report

   Every test runs through the fault-isolated Harness.Runner: parse
   errors, lint errors, budget exhaustion and internal failures become
   classified report entries, and the batch always completes. *)

open Cmdliner

(* Per-entry console output, preserving the classic verdict line for
   completed checks; [listing] gives the outcomes to print under it, if
   asked for. *)
let print_entry model_name listing (e : Harness.Runner.entry) =
  (match (e.Harness.Runner.status, e.Harness.Runner.result) with
  | Harness.Runner.Pass v, Some r ->
      Fmt.pr "Test %s: %a under %s (%d candidate executions, %d consistent)@."
        e.Harness.Runner.item_id Exec.Check.pp_verdict v model_name
        r.Exec.Check.n_candidates r.Exec.Check.n_consistent
  | Harness.Runner.Fail { expected; got }, _ ->
      Fmt.pr "Test %s: FAIL under %s — expected %s, got %s@."
        e.Harness.Runner.item_id model_name
        (Exec.Check.verdict_to_string expected)
        (Exec.Check.verdict_to_string got)
  | Harness.Runner.Gave_up reason, _ ->
      Fmt.pr "Test %s: Unknown under %s (%s; %d candidates enumerated)@."
        e.Harness.Runner.item_id model_name
        (Exec.Budget.reason_to_string reason)
        e.Harness.Runner.n_candidates
  | Harness.Runner.Err err, _ ->
      Fmt.pr "Test %s: %a@." e.Harness.Runner.item_id Harness.Runner.pp_error
        err
  | Harness.Runner.Pass v, None ->
      Fmt.pr "Test %s: %a under %s@." e.Harness.Runner.item_id
        Exec.Check.pp_verdict v model_name);
  (match (listing, e.Harness.Runner.result) with
  | Some outcomes_of, Some r ->
      List.iter
        (fun (o, matches) ->
          Fmt.pr "  %a %s@." Exec.pp_outcome o
            (if matches then "<- condition" else ""))
        (outcomes_of r)
  | _ -> ());
  match e.Harness.Runner.result with
  | Some r when r.Exec.Check.explanations <> [] ->
      List.iter
        (fun ex -> Fmt.pr "%s@." (Exec.Explain.to_string ex))
        r.Exec.Check.explanations
  | _ -> ()

let write_dot path (e : Harness.Runner.entry) source =
  (* prefer the explained counterexample (with its cycle overlay), then
     the witness, then the first candidate if the test at least parses *)
  let x, explain =
    match e.Harness.Runner.result with
    | Some { Exec.Check.counterexample = Some x; explanations; _ } ->
        (Some x, explanations)
    | Some { Exec.Check.witness = Some x; _ } -> (Some x, [])
    | _ -> (
        ( (try
             match Exec.of_test (Litmus.parse source) with
             | x :: _ -> Some x
             | [] -> None
           with _ -> None),
          [] ))
  in
  match x with
  | Some x ->
      Exec.Dot.to_file ~explain path x;
      Fmt.pr "wrote %s@." path
  | None -> ()

(* --explain-diff A,B: run each test under both models with forensics
   on and name the checks failing under one but not the other. *)
let explain_diff ~limits ~backend spec (items : Harness.Runner.item list) =
  let module R = Harness.Runner in
  let a, b =
    match String.split_on_char ',' spec with
    | [ a; b ] -> (String.trim a, String.trim b)
    | _ ->
        failwith
          (Printf.sprintf "--explain-diff expects MODEL,MODEL (got %S)" spec)
  in
  let a = Harness.Model_table.find a and b = Harness.Model_table.find b in
  let run (m : Harness.Model_table.t) i =
    R.run_item ~limits ~backend
      ~explainer:(Harness.Model_table.explainer m)
      ~oracle:m.oracle
      { i with R.expected = None }
  in
  let entries =
    List.concat_map
      (fun (i : R.item) ->
        let ea = run a i and eb = run b i in
        let verdict (e : R.entry) =
          match e.R.status with
          | R.Pass v | R.Fail { got = v; _ } -> Exec.Check.verdict_to_string v
          | R.Gave_up reason ->
              "Unknown (" ^ Exec.Budget.reason_to_string reason ^ ")"
          | R.Err err -> Fmt.str "error (%a)" R.pp_error err
        in
        let failing (e : R.entry) =
          match e.R.result with
          | Some r ->
              List.sort_uniq compare
                (List.map
                   (fun (x : Exec.Explain.t) -> x.Exec.Explain.check)
                   r.Exec.Check.explanations)
          | None -> []
        in
        let na = a.display and nb = b.display in
        Fmt.pr "Test %s: %s=%s, %s=%s@." i.R.id na (verdict ea) nb
          (verdict eb);
        let fa = failing ea and fb = failing eb in
        let side n f other_name other_f other_vocab =
          List.iter
            (fun c ->
              if List.mem c other_f then
                Fmt.pr "  both models fail %s@." c
              else if List.mem c other_vocab then
                Fmt.pr "  %s fails %s; %s satisfies it@." n c other_name
              else Fmt.pr "  %s fails %s — not a check of %s@." n c other_name)
            f
        in
        side na fa nb fb (Harness.Model_table.check_names b);
        side nb (List.filter (fun c -> not (List.mem c fa)) fb) na fa
          (Harness.Model_table.check_names a);
        if fa = [] && fb = [] then
          Fmt.pr "  no failing checks under either model@.";
        [ ea; eb ])
      items
  in
  R.summarise ~wall:0. entries

(* --shrink: minimise every failing or crashing entry to a reproducer
   next to its input ([<id>.min.litmus]).  Crashes are re-checked in an
   isolated worker; mismatches shrink in-process. *)
let shrink_failures ~limits ~backend ~oracle ~pool_config
    (report : Harness.Runner.report) (items : Harness.Runner.item list) =
  let module R = Harness.Runner in
  let module S = Harness.Shrink in
  let repro_path id =
    (if Filename.check_suffix id ".litmus" then
       Filename.chop_suffix id ".litmus"
     else id)
    ^ ".min.litmus"
  in
  let ast_of (i : R.item) =
    try
      Some
        (match i.R.source with
        | `Ast t -> t
        | `Text s -> Litmus.parse s
        | `File p -> Litmus.parse (R.read_file p))
    with _ -> None
  in
  List.iter2
    (fun (e : R.entry) (i : R.item) ->
      let shrinkable =
        match e.R.status with
        | R.Fail _ | R.Err { cls = R.Crash _; _ } -> true
        | _ -> false
      in
      match (shrinkable, ast_of i) with
      | false, _ | _, None -> ()
      | true, Some t ->
          let check =
            match e.R.status with
            | R.Err { cls = R.Crash _; _ } ->
                fun t' ->
                  S.isolated_check ~config:pool_config ~oracle ~backend
                    ?expected:i.R.expected t'
            | _ ->
                fun t' ->
                  R.run_item ~limits ~backend ~oracle
                    {
                      R.id = t'.Litmus.Ast.name;
                      source = `Ast t';
                      expected = i.R.expected;
                    }
          in
          let o = S.shrink_entry ~check e t in
          let path = repro_path e.R.item_id in
          S.write_reproducer path o.S.reduced;
          Fmt.pr "Shrunk %s: size %d -> %d in %d steps (%d oracle runs); \
                  wrote %s@."
            e.R.item_id o.S.initial_size o.S.final_size o.S.steps
            o.S.oracle_runs path)
    report.R.entries items

let main model verbose outcomes dot explain explain_diff_spec builtin timeout
    max_candidates max_events json jobs mem_limit journal resume shrink
    backend trace metrics files =
  Harness.Cli.with_obs ~trace ~metrics @@ fun () ->
  let model = Harness.Model_table.find model in
  let oracle = model.oracle and mname = model.display in
  let limits =
    Exec.Budget.limits ?timeout ?max_events ?max_candidates ()
  in
  let items =
    (match builtin with
    | Some name ->
        let e = Harness.Battery.find name in
        (* check the battery entry's source directly; its recorded LK
           verdict becomes the expectation when running the LK model *)
        [
          {
            Harness.Runner.id = e.Harness.Battery.name;
            source = `Text e.Harness.Battery.source;
            expected =
              (if mname = "LK" then Some e.Harness.Battery.lk else None);
          };
        ]
    | None -> [])
    @ List.map
        (fun path ->
          { Harness.Runner.id = path; source = `File path; expected = None })
        files
  in
  if items = [] then begin
    Fmt.pr
      "no tests given; try: herd_lk -b MP+wmb+rmb  (built-in battery test)@.";
    0
  end
  else
    match explain_diff_spec with
    | Some spec ->
        Harness.Runner.exit_code (explain_diff ~limits ~backend spec items)
    | None ->
  begin
    let pool_config =
      {
        Harness.Pool.default with
        Harness.Pool.jobs = max 1 jobs;
        limits;
        mem_limit_mb = mem_limit;
      }
    in
    (* isolation is opt-in: any pool-only feature selects the pool *)
    let use_pool =
      jobs > 1 || mem_limit <> None || journal <> None || resume <> None
    in
    let explainer =
      if explain || verbose then Some (Harness.Model_table.explainer model)
      else None
    in
    let report =
      if use_pool then
        Harness.Pool.run ~config:pool_config ?journal ?resume ?explainer
          ~backend ~oracle items
      else
        Harness.Runner.run ~limits ?explainer ~backend ~oracle items
    in
    if shrink then
      shrink_failures ~limits ~backend ~oracle ~pool_config report items;
    if json then print_string (Harness.Runner.to_json report ^ "\n")
    else begin
      let sources =
        List.map
          (fun (i : Harness.Runner.item) ->
            match i.source with
            | `Text s -> s
            | `File p -> (try Harness.Runner.read_file p with _ -> "")
            | `Ast t -> Litmus.to_string t)
          items
      in
      (* The listing is every consistent outcome, from the every-
         candidate stream ([Exec.Oracle.allowed_outcomes]) on every
         backend: a verdict's own [outcomes] skip the structures the
         condition refutes, and the SAT engine's hold its witness
         alone.  An outcome is flagged when it makes the condition
         observable under the test's quantifier. *)
      let listing source =
        if not outcomes then None
        else
          Some
            (fun (r : Exec.Check.result) ->
              match r.Exec.Check.verdict with
              | Exec.Check.Unknown _ -> []
              | Exec.Check.Allow | Exec.Check.Forbid ->
                  let test = Litmus.parse source in
                  let budget =
                    if Exec.Budget.is_unlimited limits then None
                    else Some (Exec.Budget.start limits)
                  in
                  let asserted o =
                    Exec.holds test (fun v ->
                        List.assoc (Exec.observable_name v) o)
                    <> (test.Litmus.Ast.quant = Litmus.Ast.Q_forall)
                  in
                  match
                    Exec.Oracle.allowed_outcomes ?budget oracle test
                  with
                  | os -> List.map (fun o -> (o, asserted o)) os
                  | exception Exec.Budget.Exceeded reason ->
                      Fmt.pr "  outcomes unknown (%s)@."
                        (Exec.Budget.reason_to_string reason);
                      []
                  | exception e ->
                      Fmt.pr "  outcomes unknown (model error: %s)@."
                        (Printexc.to_string e);
                      [])
      in
      List.iter2
        (fun (e : Harness.Runner.entry) source ->
          print_entry mname (listing source) e;
          match dot with Some p -> write_dot p e source | None -> ())
        report.Harness.Runner.entries sources;
      if List.length items > 1 then Fmt.pr "%a@." Harness.Runner.pp report
    end;
    Harness.Runner.exit_code report
  end

let model_arg =
  Arg.(
    value
    & opt string "lk"
    & info [ "model"; "m" ] ~docv:"MODEL"
        ~doc:
          "Consistency model: lk (native), lk-cat (cat-interpreted), sc, \
           tso, c11, c11-psc, or a .cat file.")

let verbose_arg =
  Arg.(value & flag & info [ "v" ] ~doc:"Short for --explain.")

let outcomes_arg =
  Arg.(value & flag & info [ "outcomes" ] ~doc:"Print observable outcomes.")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "battery" ] ~docv:"NAME"
        ~doc:"Run a built-in battery test by name (e.g. MP+wmb+rmb).")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write a Graphviz rendering of the witness execution (with \
           --explain, of the counterexample, the violating cycle \
           highlighted).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Verdict forensics: for every Forbid verdict, print each failed \
           check with a minimal witnessing cycle, every edge decomposed to \
           primitive rf/co/fr/po/dependency edges.  Explanations are \
           re-validated against the model's own relations before printing; \
           with --json they ride along in the report.")

let explain_diff_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain-diff" ] ~docv:"MODEL,MODEL"
        ~doc:
          "Run each test under two models with forensics on and name the \
           checks failing under one but not the other (e.g. lkmm,c11).")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:
          "Minimise every failing or crashing test to a reproducer written \
           next to the input as <name>.min.litmus (delta debugging against \
           the same classified outcome).")

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"TEST.litmus")

let cmd =
  let module C = Harness.Cli in
  Cmd.v
    (Cmd.info "herd_lk" ~doc:"Run litmus tests against memory models"
       ~exits:C.exit_infos
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs each test through a fault-isolated batch runner: parse \
              errors, lint errors, budget exhaustion and internal failures \
              are reported as classified entries and the batch always \
              completes.  The highest-severity entry decides the exit code \
              (error > fail > budget).";
         ])
    Term.(
      const main $ model_arg $ verbose_arg $ outcomes_arg $ dot_arg
      $ explain_arg $ explain_diff_arg
      $ builtin_arg $ C.timeout_arg $ C.max_candidates_arg $ C.max_events_arg
      $ C.json_arg $ C.jobs_arg $ C.mem_limit_arg $ C.journal_arg
      $ C.resume_arg $ shrink_arg $ C.backend_arg
      $ C.trace_arg $ C.metrics_arg $ files_arg)

let () = Harness.Cli.eval ~name:"herd_lk" cmd
