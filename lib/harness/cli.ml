(* Shared CLI scaffolding for the four executables (herd_lk,
   klitmus_sim, diy_gen, catgen): one definition of the common flags,
   one exit-code mapping, one usage-error path, and one way to wire the
   observability collector to --trace/--metrics.

   Before this module each binary carried its own copy of the budget /
   journal / pool flags and of the final [Cmd.eval_value] match; the
   copies had already drifted (different doc strings, diy_gen missing
   the battery hint on [Not_found]).  The flags and the match live here
   exactly once; a binary keeps only the flags that are genuinely its
   own (-model, -arch, -size, ...). *)

open Cmdliner

(* ---------------------------------------------------------------- *)
(* Common flags.  Doc strings are written to read correctly from any
   of the binaries, so a flag means the same thing everywhere. *)

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per model check; exceeding it yields the \
           Unknown verdict instead of a hang.")

let max_candidates_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-candidates" ] ~docv:"N"
        ~doc:
          "Cap on candidate executions per model check (the rf/co product \
           is pre-checked, so explosions fail fast).")

let max_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:"Cap on events per candidate execution.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run items in $(docv) parallel worker processes.  Each item is \
           checked in its own forked process with a hard watchdog, so a \
           segfault or hang is contained and classified rather than fatal.")

let mem_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-limit" ] ~docv:"MB"
        ~doc:
          "Hard per-worker heap cap in megabytes (implies process \
           isolation); exceeding it yields a classified Unknown entry.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append each completed entry to $(docv) as JSONL, flushed per \
           entry; a killed run loses at most the in-flight items.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Recycle entries already recorded in journal $(docv); only \
           missing items re-run.  Usually combined with --journal FILE to \
           continue the same journal.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the batch report as JSON on stdout (the unified \
           schema-versioned report; see README).")

let backend_conv = Arg.enum [ ("enum", Exec.Check.Enum); ("sat", Exec.Check.Sat) ]

let backend_arg =
  Arg.(
    value
    & opt backend_conv Exec.Oracle.default_backend
    & info [ "backend" ] ~docv:"ENGINE"
        ~doc:
          "Checking engine: $(b,enum) (default) enumerates the candidate \
           executions and decides them one at a time, $(b,sat) solves the \
           candidate space symbolically (CDCL over a CNF encoding; decoded \
           witnesses are re-validated through the model).  Verdicts are \
           identical across engines; a model without a solver falls back \
           to $(b,enum), counted as sat.fallback.")

(* A..B, half-open: the deterministic seed intervals of generated
   sweeps and campaign shards. *)
let seed_range_conv =
  let parse s =
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && i > 0
           && i + 2 < String.length s -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 2) (String.length s - i - 2))
          )
        with
        | Some a, Some b when a < b -> Ok (a, b)
        | Some a, Some b when a >= b ->
            Error (`Msg (Printf.sprintf "empty seed range %d..%d" a b))
        | _ -> Error (`Msg ("bad seed range: " ^ s)))
    | _ -> Error (`Msg ("expected A..B, got " ^ s))
  in
  let print ppf (a, b) = Format.fprintf ppf "%d..%d" a b in
  Arg.conv (parse, print)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable the observability collector and write the run's spans \
           as a Chrome trace-event file to $(docv) (loadable in \
           chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the observability collector and write spans, counters \
           and histograms as JSONL to $(docv) (input to tools/obs_report).")

(* ---------------------------------------------------------------- *)
(* The exit-code mapping, once.  Every binary maps the same codes to
   the same meanings; binaries that cannot produce a code (catgen never
   crashes a worker) simply never return it. *)

let exit_infos =
  [
    Cmd.Exit.info 0 ~doc:"every item passed (completed, matching any \
                          recorded expectation)";
    Cmd.Exit.info 1 ~doc:"some item's verdict mismatched its expectation \
                          (FAIL)";
    Cmd.Exit.info 2 ~doc:"some item errored: parse, lex, type, lint or \
                          internal error";
    Cmd.Exit.info 3 ~doc:"some item exceeded its resource budget (Unknown) \
                          and none failed or errored";
    Cmd.Exit.info 4 ~doc:"some worker process crashed on a signal \
                          (process-isolated runs only); crash outranks \
                          error, fail and budget";
    Cmd.Exit.info 124
      ~doc:"command-line usage error: unknown option or bad value \
            (Cmdliner convention)";
    Cmd.Exit.info 125 ~doc:"uncaught internal exception (Cmdliner convention)";
  ]

(* ---------------------------------------------------------------- *)
(* Observability wiring: enable the collector iff the user asked for an
   output, and write the outputs even when the run fails (a trace of a
   failing run is the one you actually want). *)

let with_obs ~trace ~metrics f =
  if trace = None && metrics = None then f ()
  else begin
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Option.iter Obs.write_chrome trace;
        Option.iter Obs.write_jsonl metrics;
        Obs.set_enabled false)
      f
  end

(* ---------------------------------------------------------------- *)
(* The usage-error path, once: Cmdliner's own error classes keep their
   reserved codes; user errors become one-line classified messages
   rather than uncaught exceptions. *)

let eval ~name cmd =
  match Cmd.eval_value ~catch:false cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 124 (* CLI usage error *)
  | Error `Exn -> exit 125 (* internal error *)
  | exception Not_found ->
      Fmt.epr
        "%s: unknown name (for built-in battery tests see \
         lib/harness/battery.ml)@."
        name;
      exit 2
  | exception exn ->
      Fmt.epr "%s: %a@." name Report.pp_error (Runner.classify_exn exn);
      exit 2
