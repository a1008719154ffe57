(** Fault-isolated batch runner: each item runs under a fresh per-test
    {!Exec.Budget} with every exception caught and classified, so one
    malformed or explosive test cannot take a batch down.

    The result types and their JSON rendering live in {!Report}, the
    unified versioned schema shared with {!Pool} and {!Journal}; they
    are re-exported here by equation ([Runner.entry] {e is}
    [Report.entry]), so existing callers compile unchanged.

    Exit-code policy (deterministic): 0 = all pass, 1 = some FAIL
    (verdict mismatch), 2 = some ERROR (parse/lex/type/lint/internal),
    3 = some item gave its budget up and nothing failed or errored,
    4 = some item crashed its isolated worker ({!Pool});
    4 beats 2 beats 1 beats 3 in mixed batches. *)

(** {1 Error taxonomy (re-exported from {!Report})} *)

type error_class = Report.error_class =
  | Parse
  | Lex
  | Type
  | Lint
  | Budget
  | Internal
  | Crash of int
      (** worker died on this signal; produced only under process
          isolation ({!Pool}) *)

val class_to_string : error_class -> string

type error_info = Report.error_info = {
  cls : error_class;
  msg : string;
  line : int option;  (** source position, when the error carries one *)
}

(** Classify any exception of the toolchain (litmus/cat parser and lexer
    errors keep their line numbers; anything unrecognised is
    [Internal]). *)
val classify_exn : exn -> error_info

val pp_error : error_info Fmt.t

(** {1 Items} *)

type source =
  [ `Text of string  (** litmus concrete syntax *)
  | `File of string  (** path to a .litmus file *)
  | `Ast of Litmus.Ast.t ]

type item = {
  id : string;
  source : source;
  expected : Exec.Check.verdict option;  (** golden verdict, if any *)
}

type status = Report.status =
  | Pass of Exec.Check.verdict
  | Fail of { expected : Exec.Check.verdict; got : Exec.Check.verdict }
  | Gave_up of Exec.Budget.reason  (** budget exceeded: partial result *)
  | Err of error_info

type entry = Report.entry = {
  item_id : string;
  status : status;
  time : float;  (** wall-clock seconds for this item *)
  n_candidates : int;  (** candidates enumerated (partial on [Gave_up]) *)
  retried : bool;  (** true = second attempt after a worker crash *)
  result : Exec.Check.result option;
      (** the full check result when one was produced (Pass/Fail) *)
}

type report = Report.t = {
  entries : entry list;
  n_pass : int;
  n_fail : int;  (** [Err] entries other than crashes follow *)
  n_error : int;
  n_crash : int;  (** [Err] entries whose class is [Crash] *)
  n_gave_up : int;
  wall : float;
}

(** Whether an entry records a worker crash. *)
val is_crash : entry -> bool

(** Battery entries as runner items, expecting the battery's LK verdict. *)
val of_battery : Battery.entry list -> item list

(** Read a whole file (shared by the CLIs). *)
val read_file : string -> string

(** [run_item ?oracle item] — parse, lint and check one item inside the
    fault barrier.  Never raises.  [limits] defaults to
    {!Exec.Budget.default}; pass {!Exec.Budget.unlimited} to disable
    budgeting (exceptions are still caught).  Lint errors become
    [Err {cls = Lint; _}] entries.  When the
    observability collector is on, the item runs inside an "item" span
    with "parse" and "lint" children (checking opens its own spans).
    [explainer] (forwarded to the check) turns on verdict forensics:
    Forbid results carry validated explanations, at zero cost when
    absent.  [deadline] (checking-as-a-service) arms the budget against
    an absolute deadline via {!Exec.Budget.start_at}, so time spent
    queued before this call counts against the item.

    Engine selection: the item is checked through [oracle] (default:
    {!Lkmm.oracle}) via {!Exec.Oracle.run} under the requested
    [backend] (default [Batch]; [Enum] is the scalar reference path —
    what [--backend enum] selects; [Sat] runs the symbolic engine,
    falling back counted when the oracle ships none). *)
val run_item :
  ?limits:Exec.Budget.limits ->
  ?deadline:float ->
  ?explainer:(Exec.t -> Exec.Explain.t list) ->
  ?backend:Exec.Check.backend ->
  ?oracle:Exec.Oracle.t ->
  item ->
  entry

(** [run ?oracle items] — the whole batch, each item through
    {!run_item}.  Same oracle/backend resolution; with nothing given,
    the native LK oracle runs on its batched engine. *)
val run :
  ?limits:Exec.Budget.limits ->
  ?explainer:(Exec.t -> Exec.Explain.t list) ->
  ?backend:Exec.Check.backend ->
  ?oracle:Exec.Oracle.t ->
  item list ->
  report

(** Aliases for the {!Report} functions, kept under their historical
    names. *)

val summarise : wall:float -> entry list -> report
val exit_code : report -> int
val pp_status : status Fmt.t
val pp_entry : entry Fmt.t
val pp : report Fmt.t
val schema_version : int
val entry_to_json : entry -> string
val to_json : report -> string
