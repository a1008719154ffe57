(** Shared CLI scaffolding for the executables: one definition of the
    common flags, one exit-code mapping ({!exit_infos}), one
    usage-error path ({!eval}), and the [--trace]/[--metrics] wiring
    for the observability collector ({!with_obs}).

    A binary composes its term from these plus its own flags, passes
    {!exit_infos} to [Cmd.info ~exits], and ends with
    [let () = Cli.eval ~name:"tool" cmd]. *)

open Cmdliner

(** {1 Common flags} *)

val timeout_arg : float option Term.t
(** [--timeout SECONDS] — wall-clock budget per model check. *)

val max_candidates_arg : int option Term.t
(** [--max-candidates N] — candidate-execution cap per check. *)

val max_events_arg : int option Term.t
(** [--max-events N] — event cap per candidate execution. *)

val jobs_arg : int Term.t
(** [-j N]/[--jobs N] — process-isolated parallel workers (default 1). *)

val mem_limit_arg : int option Term.t
(** [--mem-limit MB] — per-worker heap cap (implies isolation). *)

val journal_arg : string option Term.t
(** [--journal FILE] — append completed entries as JSONL. *)

val resume_arg : string option Term.t
(** [--resume FILE] — recycle entries already journalled. *)

val json_arg : bool Term.t
(** [--json] — emit the unified {!Report} JSON on stdout. *)

val backend_arg : Exec.Check.backend Term.t
(** [--backend enum|sat] — the checking engine
    ({!Exec.Oracle.run}), {!Exec.Oracle.default_backend} ([enum]) by
    default; verdicts are identical across engines. *)

val seed_range_conv : (int * int) Arg.conv
(** ["A..B"], half-open, [A < B] — deterministic seed intervals. *)

val trace_arg : string option Term.t
(** [--trace FILE] — enable the collector, write a Chrome trace. *)

val metrics_arg : string option Term.t
(** [--metrics FILE] — enable the collector, write metrics JSONL. *)

(** {1 Exit codes} *)

(** The one exit-code mapping: 0 pass, 1 fail, 2 error, 3 budget,
    4 worker crash, 124 usage error, 125 internal exception. *)
val exit_infos : Cmd.Exit.info list

(** {1 Observability wiring} *)

(** [with_obs ~trace ~metrics f] — when either output is requested,
    enable {!Obs}, run [f], and write the requested files even if [f]
    raises (the trace of a failing run is the one you want); otherwise
    just run [f]. *)
val with_obs :
  trace:string option -> metrics:string option -> (unit -> int) -> int

(** {1 Evaluation} *)

(** Evaluate the command and [exit]: the term's own code on success,
    124 on usage errors, 125 on internal exceptions; [Not_found]
    becomes a battery hint and other exceptions a classified one-line
    message, both exiting 2.  Never returns. *)
val eval : name:string -> int Cmd.t -> unit
