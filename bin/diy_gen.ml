(* diy_gen: generate litmus tests from cycles of relaxation edges — the
   repository's diy7 equivalent.

     diy_gen -size 4                    # enumerate all size-4 cycles
     diy_gen -size 5 -sample 50         # sample larger sizes
     diy_gen -size 4 -verdicts          # also print LK verdicts
     diy_gen -size 7 -verdicts -timeout 5   # budgeted: big cycles degrade
                                            # to Unknown instead of hanging
     diy_gen -size 4 -o tests/          # write .litmus files *)

open Cmdliner

let main size sample seed_range verdicts outdir timeout max_candidates
    max_events jobs journal resume json backend trace metrics =
  Harness.Cli.with_obs ~trace ~metrics @@ fun () ->
  (* with --json, stdout carries the report; the listing moves to stderr *)
  let ppf = if json then Fmt.stderr else Fmt.stdout in
  let t_start = Unix.gettimeofday () in
  let tests =
    match (seed_range, sample) with
    | Some (lo, hi), _ ->
        (* deterministic: the same range always regenerates the
           byte-identical tests (campaign shards rely on this); distinct
           seeds can collide on a cycle, so keep the first of each name *)
        let seen = Hashtbl.create 256 in
        Diygen.generate_range ~vocabulary:Diygen.Edge.core_vocabulary ~size lo
          hi
        |> List.filter_map (fun ((_ : int), (t : Litmus.Ast.t)) ->
               if Hashtbl.mem seen t.name then None
               else begin
                 Hashtbl.replace seen t.name ();
                 Some t
               end)
    | None, None -> Diygen.generate ~vocabulary:Diygen.Edge.core_vocabulary size
    | None, Some count ->
        let rng = Random.State.make [| 2018 |] in
        Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count size
  in
  let limits = Exec.Budget.limits ?timeout ?max_events ?max_candidates () in
  let budgeted oracle t =
    if Exec.Budget.is_unlimited limits then Exec.Oracle.run ~backend oracle t
    else Exec.Oracle.run ~backend ~budget:(Exec.Budget.start limits) oracle t
  in
  let c11_oracle = Exec.Oracle.of_model (module Models.C11) in
  let unknowns = ref 0 in
  Fmt.pf ppf "generated %d tests of size %d@." (List.length tests) size;
  let emit_test (t : Litmus.Ast.t) =
    match outdir with
    | None -> ()
    | Some dir ->
        let path =
          Filename.concat dir
            (String.map (function '+' -> '-' | c -> c) t.name ^ ".litmus")
        in
        (* atomic: a killed sweep cannot leave a torn .litmus file *)
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        output_string oc (Litmus.to_string t);
        close_out oc;
        Sys.rename tmp path
  in
  let c11_column (t : Litmus.Ast.t) =
    if Models.C11.applicable t then
      Exec.Check.verdict_to_string (budgeted c11_oracle t).Exec.Check.verdict
    else "-"
  in
  (* the LK sweep is the expensive half; any pool feature moves it into
     isolated workers, with the journal keyed by test name *)
  let use_pool = verdicts && (jobs > 1 || journal <> None || resume <> None) in
  if use_pool then begin
    let items =
      List.map
        (fun (t : Litmus.Ast.t) ->
          { Harness.Runner.id = t.name; source = `Ast t; expected = None })
        tests
    in
    let config =
      { Harness.Pool.default with Harness.Pool.jobs = max 1 jobs; limits }
    in
    let report =
      Harness.Pool.run ~config ?journal ?resume ~backend items
    in
    List.iter2
      (fun (t : Litmus.Ast.t) (e : Harness.Runner.entry) ->
        let lk =
          match e.Harness.Runner.status with
          | Harness.Runner.Pass v -> Exec.Check.verdict_to_string v
          | Harness.Runner.Gave_up _ -> "Unknown"
          | Harness.Runner.Err { cls; _ } ->
              "error:" ^ Harness.Runner.class_to_string cls
          | Harness.Runner.Fail _ -> "FAIL"
        in
        Fmt.pf ppf "%-45s LK:%-6s C11:%s@." t.name lk (c11_column t);
        emit_test t)
      tests report.Harness.Runner.entries;
    if report.Harness.Runner.n_gave_up > 0 then
      Fmt.pf ppf "%d tests exceeded their budget (Unknown)@."
        report.Harness.Runner.n_gave_up;
    if json then print_string (Harness.Runner.to_json report ^ "\n");
    Harness.Runner.exit_code report
  end
  else begin
    let entries = ref [] in
    List.iter
      (fun (t : Litmus.Ast.t) ->
        (if verdicts then begin
           (* fresh budget per test: one explosive cycle degrades to Unknown
              and the sweep keeps going *)
           let t0 = Unix.gettimeofday () in
           let r = budgeted Lkmm.oracle t in
           let lk = r.Exec.Check.verdict in
           (match lk with Exec.Check.Unknown _ -> incr unknowns | _ -> ());
           let status =
             match lk with
             | Exec.Check.Unknown (Exec.Check.Budget_exceeded reason) ->
                 Harness.Runner.Gave_up reason
             | Exec.Check.Unknown (Exec.Check.Model_error exn) ->
                 Harness.Runner.Err (Harness.Runner.classify_exn exn)
             | Exec.Check.Unknown (Exec.Check.Crashed s) ->
                 Harness.Runner.Err
                   {
                     Harness.Runner.cls = Harness.Runner.Crash s;
                     msg = "worker crashed";
                     line = None;
                   }
             | v -> Harness.Runner.Pass v
           in
           entries :=
             {
               Harness.Runner.item_id = t.name;
               status;
               time = Unix.gettimeofday () -. t0;
               n_candidates = r.Exec.Check.n_candidates;
               retried = false;
               result = Some r;
             }
             :: !entries;
           Fmt.pf ppf "%-45s LK:%-6s C11:%s@." t.name
             (Exec.Check.verdict_to_string lk)
             (c11_column t)
         end
         else Fmt.pf ppf "%s@." t.name);
        emit_test t)
      tests;
    if !unknowns > 0 then
      Fmt.pf ppf "%d tests exceeded their budget (Unknown)@." !unknowns;
    let report =
      Harness.Report.summarise
        ~wall:(Unix.gettimeofday () -. t_start)
        (List.rev !entries)
    in
    if json then print_string (Harness.Report.to_json report ^ "\n");
    if !unknowns > 0 then 3 else 0
  end

let size_arg =
  Arg.(value & opt int 4 & info [ "size"; "s" ] ~doc:"Cycle length.")

let sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample" ] ~docv:"N"
        ~doc:"Sample N random cycles instead of enumerating.")

let seed_range_arg =
  Arg.(
    value
    & opt (some Harness.Cli.seed_range_conv) None
    & info [ "seed-range" ] ~docv:"A..B"
        ~doc:
          "Generate deterministically from seeds A (inclusive) to B \
           (exclusive): the same range always produces the byte-identical \
           tests.")

let verdicts_arg =
  Arg.(value & flag & info [ "verdicts" ] ~doc:"Print LK and C11 verdicts.")

let outdir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "o" ] ~docv:"DIR" ~doc:"Write the tests as .litmus files.")

let cmd =
  let module C = Harness.Cli in
  Cmd.v
    (Cmd.info "diy_gen" ~doc:"Generate litmus tests from relaxation cycles"
       ~exits:C.exit_infos)
    Term.(
      const main $ size_arg $ sample_arg $ seed_range_arg $ verdicts_arg
      $ outdir_arg $ C.timeout_arg $ C.max_candidates_arg $ C.max_events_arg
      $ C.jobs_arg $ C.journal_arg $ C.resume_arg $ C.json_arg $ C.backend_arg
      $ C.trace_arg $ C.metrics_arg)

let () = Harness.Cli.eval ~name:"diy_gen" cmd
