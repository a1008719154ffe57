(* lkcampaign: fault-tolerant sharded sweeps over generated tests, with
   differential mining.

     lkcampaign run  --dir camp --size 4 --seeds 0..450000 --shard 4096 -j 8
     lkcampaign run  --dir camp ...          # again: resumes where it died
     lkcampaign mine --dir camp --explain    # re-mine a finished manifest
     lkcampaign status --dir camp            # shard states at a glance

   A campaign is a seed interval partitioned into regenerable shards;
   tests are synthesized on demand inside workers and never hit the
   disk.  The manifest journal makes any kill -9 resumable, and with
   the default (wall-clock-free) budgets a resumed run mines a report
   byte-identical to an uninterrupted one. *)

open Cmdliner
module C = Harness.Cli
module Campaign = Harness.Campaign

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

let dir_arg =
  Arg.(
    value & opt string "campaign"
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Campaign directory: manifest, shard journals, mined report.")

let size_arg = Arg.(value & opt int 4 & info [ "size"; "s" ] ~doc:"Cycle length.")

let seeds_arg =
  Arg.(
    value
    & opt C.seed_range_conv (0, 100_000)
    & info [ "seeds" ] ~docv:"A..B"
        ~doc:
          "Seed interval, half-open.  Each seed deterministically denotes \
           at most one test; the same interval always regenerates the \
           byte-identical campaign.")

let shard_arg =
  Arg.(
    value & opt int 4096
    & info [ "shard" ] ~docv:"N" ~doc:"Seeds per initial shard.")

let models_arg =
  Arg.(
    value
    & opt (list string) [ "lk"; "cat"; "c11" ]
    & info [ "models" ] ~docv:"M,.."
        ~doc:"Model columns: any of lk (native), cat (lk.cat), c11.")

let archs_arg =
  Arg.(
    value & opt (list string) []
    & info [ "archs" ] ~docv:"A,.."
        ~doc:
          "Operational-simulator columns (e.g. Power8,ARMv7); observed \
           outcomes are mined against the LK verdicts.")

let hw_runs_arg =
  Arg.(
    value & opt int 2000
    & info [ "hw-runs" ] ~docv:"N" ~doc:"Simulator runs per test per arch.")

let lease_arg =
  Arg.(
    value & opt float 300.
    & info [ "lease-timeout" ] ~docv:"SECONDS"
        ~doc:"SIGKILL and requeue a shard worker after this long.")

let max_rows_arg =
  Arg.(
    value & opt int 64
    & info [ "max-rows" ] ~docv:"N"
        ~doc:
          "Disagreement rows kept per shard (drops are counted, never \
           silent).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Attach axiom-level forensics to mined Forbid-side patterns.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o" ] ~docv:"FILE"
        ~doc:"Mined report path (default DIR/report.json).")

let poison_arg =
  Arg.(
    value & opt (list int) []
    & info [ "chaos-poison" ] ~docv:"SEED,.."
        ~doc:
          "Chaos hook: workers crash at these seeds (exercises the \
           retry/bisect/quarantine ladder).")

let wedge_arg =
  Arg.(
    value & opt (list int) []
    & info [ "chaos-wedge" ] ~docv:"SEED,.."
        ~doc:"Chaos hook: workers hang at these seeds (exercises leases).")

let flight_arg =
  Arg.(
    value & flag
    & info [ "flight" ]
        ~doc:
          "Arm the crash flight recorder in every shard worker: per-seed \
           checkpoints land in DIR/flight-<pid>.jsonl, so a crashed, \
           poisoned or wedged worker leaves a post-mortem naming the \
           victim seed (readable with $(b,obs_report --postmortem)).")

let metrics_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:
          "Seconds between live lkmetrics-1 snapshots appended to \
           DIR/metrics.jsonl alongside the manifest.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress on stderr.")

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let emit_report ~json ~out rep =
  let j = Campaign.report_to_json rep in
  (match out with Some path -> write_file path (j ^ "\n") | None -> ());
  if json then print_string (j ^ "\n")
  else print_string (Campaign.report_to_text rep);
  if rep.Campaign.totals.Campaign.n_quarantined > 0 then 4 else 0

let run_main dir size (seed_lo, seed_hi) shard_size jobs models archs hw_runs
    timeout max_candidates max_events lease_timeout max_rows explain out
    poison wedge flight metrics_interval quiet json backend trace metrics =
  C.with_obs ~trace ~metrics @@ fun () ->
  let limits =
    (* flag-less runs keep the deterministic candidate/event caps; any
       explicit flag rebuilds the budget (a --timeout trades away the
       chaos-equality property, which only CI cares about) *)
    if timeout = None && max_candidates = None && max_events = None then
      Campaign.default.Campaign.limits
    else Exec.Budget.limits ?timeout ?max_candidates ?max_events ()
  in
  let config =
    {
      Campaign.default with
      Campaign.dir;
      size;
      seed_lo;
      seed_hi;
      shard_size;
      jobs = max 1 jobs;
      models;
      archs;
      hw_runs;
      limits;
      lease_timeout;
      max_rows;
      explain;
      backend;
      poison;
      wedge;
      flight;
      metrics_interval;
      log =
        (if quiet then ignore
         else fun s -> Printf.eprintf "lkcampaign: %s\n%!" s);
    }
  in
  match Campaign.run config with
  | Error e ->
      Fmt.epr "lkcampaign: %s@." e;
      2
  | Ok rep ->
      let out = Some (Option.value ~default:(Filename.concat dir "report.json") out) in
      emit_report ~json ~out rep

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run (or resume) a campaign to completion and mine it"
       ~exits:C.exit_infos)
    Term.(
      const run_main $ dir_arg $ size_arg $ seeds_arg $ shard_arg $ C.jobs_arg
      $ models_arg $ archs_arg $ hw_runs_arg $ C.timeout_arg
      $ C.max_candidates_arg $ C.max_events_arg $ lease_arg $ max_rows_arg
      $ explain_arg $ out_arg $ poison_arg $ wedge_arg $ flight_arg
      $ metrics_interval_arg $ quiet_arg $ C.json_arg $ C.backend_arg
      $ C.trace_arg $ C.metrics_arg)

(* ------------------------------------------------------------------ *)
(* mine                                                                *)
(* ------------------------------------------------------------------ *)

let mine_main dir explain out json trace metrics =
  C.with_obs ~trace ~metrics @@ fun () ->
  match Harness.Manifest.load (Campaign.manifest_path dir) with
  | Error e ->
      Fmt.epr "lkcampaign: %s: %s@." dir e;
      2
  | Ok m -> emit_report ~json ~out (Campaign.mine ~explain m)

let mine_cmd =
  Cmd.v
    (Cmd.info "mine" ~doc:"Mine a manifest's discrepancy report (read-only)"
       ~exits:C.exit_infos)
    Term.(
      const mine_main $ dir_arg $ explain_arg $ out_arg $ C.json_arg
      $ C.trace_arg $ C.metrics_arg)

(* ------------------------------------------------------------------ *)
(* status                                                              *)
(* ------------------------------------------------------------------ *)

let status_main dir =
  match Harness.Manifest.load (Campaign.manifest_path dir) with
  | Error e ->
      Fmt.epr "lkcampaign: %s: %s@." dir e;
      2
  | Ok m ->
      let spec = Harness.Manifest.spec m in
      let shards = Harness.Manifest.shards m in
      let count p = List.length (List.filter p shards) in
      let is s (sh : Harness.Manifest.shard) =
        match (s, sh.state) with
        | `P, Harness.Manifest.Pending -> true
        | `L, Harness.Manifest.Leased _ -> true
        | `D, Harness.Manifest.Done _ -> true
        | `Q, Harness.Manifest.Quarantined _ -> true
        | _ -> false
      in
      Printf.printf "campaign %s: size=%d seeds=[%d,%d) shard=%d\n" dir
        spec.Harness.Manifest.size spec.Harness.Manifest.seed_lo
        spec.Harness.Manifest.seed_hi spec.Harness.Manifest.shard_size;
      Printf.printf "  shards %d: %d done, %d leased, %d pending, %d \
                     quarantined\n"
        (List.length shards) (count (is `D)) (count (is `L)) (count (is `P))
        (count (is `Q));
      List.iter
        (fun (sh : Harness.Manifest.shard) ->
          match sh.state with
          | Harness.Manifest.Leased { attempt; pid; _ } ->
              Printf.printf "  leased %s attempt %d pid %d\n"
                (Harness.Manifest.shard_id sh.lo sh.hi)
                attempt pid
          | Harness.Manifest.Quarantined { attempts; error } ->
              Printf.printf "  quarantined %s after %d attempts: %s\n"
                (Harness.Manifest.shard_id sh.lo sh.hi)
                attempts error
          | _ -> ())
        shards;
      0

let status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"Shard states of a campaign directory"
       ~exits:C.exit_infos)
    Term.(const status_main $ dir_arg)

(* ------------------------------------------------------------------ *)

let cmd =
  Cmd.group
    (Cmd.info "lkcampaign"
       ~doc:"Fault-tolerant campaign sweeps with differential mining"
       ~exits:C.exit_infos)
    [ run_cmd; mine_cmd; status_cmd ]

let () = C.eval ~name:"lkcampaign" cmd
