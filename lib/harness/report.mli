(** The unified, versioned result schema: per-item entries and batch
    reports, shared by {!Runner} (in-process batches), {!Pool}
    (process-isolated batches), {!Journal} (persistence and resume) and
    every CLI's [--json] output.

    Schema version 2; the field migration from v1 is documented in the
    implementation header and DESIGN.md §observability.  Exit-code
    policy: 0 = all pass, 1 = some FAIL (verdict mismatch), 2 = some
    ERROR (parse/lex/type/lint/internal), 3 = some item gave its budget
    up and nothing failed or errored, 4 = some item crashed its
    isolated worker; 4 beats 2 beats 1 beats 3 in mixed batches. *)

(** {1 Error taxonomy} *)

type error_class =
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

type error_info = {
  cls : error_class;
  msg : string;
  line : int option;  (** source position, when the error carries one *)
}

val pp_error : error_info Fmt.t

(** {1 Entries and reports} *)

type status =
  | Pass of Exec.Check.verdict
  | Fail of { expected : Exec.Check.verdict; got : Exec.Check.verdict }
  | Gave_up of Exec.Budget.reason  (** budget exceeded: partial result *)
  | Err of error_info

type entry = {
  item_id : string;
  status : status;
  time : float;  (** wall-clock seconds for this item *)
  n_candidates : int;  (** candidates enumerated (partial on [Gave_up]) *)
  retried : bool;  (** true = second attempt after a worker crash *)
  result : Exec.Check.result option;
      (** the full check result when one was produced (Pass/Fail) *)
}

type t = {
  entries : entry list;
  n_pass : int;
  n_fail : int;
  n_error : int;  (** [Err] entries other than crashes *)
  n_crash : int;  (** [Err] entries whose class is [Crash] *)
  n_gave_up : int;
  wall : float;
}

(** Whether an entry records a worker crash. *)
val is_crash : entry -> bool

(** Re-count the batch summary from a list of entries (used when entries
    are assembled out of band, e.g. journal resume). *)
val summarise : wall:float -> entry list -> t

(** The deterministic exit-code policy (see the module header). *)
val exit_code : t -> int

(** {1 Rendering} *)

val pp_status : status Fmt.t
val pp_entry : entry Fmt.t
val pp : t Fmt.t

(** Version stamped into JSON reports and journal lines: 5, since the
    per-entry counts cover only the candidates a verdict visits
    ({!Exec.Check.result}); the history is in the implementation. *)
val schema_version : int

(** JSON string escaping: {!Obs.json_escape}. *)
val json_escape : string -> string

val entry_to_json : entry -> string

(** The report as a JSON document (stable field names; see README).
    When the observability collector is enabled the document carries a
    [metrics] object with the collector's totals. *)
val to_json : t -> string
