(** Crash-safe run journal: an append-only JSONL file with one
    self-contained {!Report.entry} line per completed item, written and
    flushed as a run progresses.  A [kill -9] mid-run loses at most the
    line being written; {!load} tolerates a truncated final line (and
    any other unparseable line) by dropping it.  Duplicate ids can
    appear legitimately (crash retries, overlapping resumed runs): the
    last line for an id wins. *)

(** {1 JSON reading}

    The tree ships no JSON library; emission lives in {!Report} and
    this is its reading half (full JSON value syntax, no streaming).
    Exposed because other textual-JSON consumers in the tree
    ([tools/obs_report], tests) reuse it. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Malformed of string

  (** Parse one complete JSON value; raises {!Malformed}. *)
  val of_string : string -> t

  (** Object member lookup ([None] on non-objects and missing keys). *)
  val mem : string -> t -> t option

  val str : t -> string option
  val num : t -> float option
  val bool_ : t -> bool option

  (** Re-render a parsed value as JSON (member order preserved). *)
  val to_string : t -> string
end

(** {1 Entry <-> line} *)

(** One journal line (no trailing newline): the entry's {!Report} JSON
    plus [schema_version] and, for [Gave_up] entries, a structured
    reason that round-trips exactly. *)
val line_of_entry : Report.entry -> string

(** Parse a journal line back; [None] on any malformed or torn line.
    Full check results are not journalled, so [result] is [None]. *)
val entry_of_line : string -> Report.entry option

(** {1 Writing} *)

type writer

(** Open for append (create if missing): resuming writes into the same
    journal, keeping the file a complete record of the battery.  With
    [~fsync] (default [false]) every appended line is forced to stable
    storage before {!write} returns — surviving power loss and OS
    crashes, not just process kills, at a per-append cost. *)
val open_writer : ?fsync:bool -> string -> writer

(** Append one entry and flush: after a hard kill the journal is
    complete up to the last finished item. *)
val write : writer -> Report.entry -> unit

(** Append one raw (single-line) string through the same flush/fsync
    path; used by JSONL journals with their own line shape (the
    service's verdict cache). *)
val write_line : writer -> string -> unit

val close : writer -> unit

(** {1 Streaming readers}

    Campaign-scale journals hold 10^5+ lines; these visit one line at a
    time so a resume never materialises the file as a list.  All the
    list-returning loaders below are built on them. *)

(** [iter_lines path f] — [f] on every raw line, in file order; a no-op
    if the file does not exist. *)
val iter_lines : string -> (string -> unit) -> unit

(** [fold_lines path ~init ~f] — fold over every raw line. *)
val fold_lines : string -> init:'a -> f:('a -> string -> 'a) -> 'a

(** [fold path ~init ~f] — fold over every line that parses as an entry
    (torn or garbage lines skipped, as {!load} drops them).  No
    duplicate-id resolution: the caller sees raw append order. *)
val fold : string -> init:'a -> f:('a -> Report.entry -> 'a) -> 'a

(** [iter path f] — {!fold} without an accumulator. *)
val iter : string -> (Report.entry -> unit) -> unit

(** {1 Loading and resuming} *)

(** All entries of a journal, last-wins per id, first occurrence keeping
    its position; [[]] if the file does not exist. *)
val load : string -> Report.entry list

(** Every line of a JSONL file that parses as JSON, in file order;
    torn or garbage lines are dropped exactly as {!load} drops them.
    [[]] if the file does not exist.  For JSONL journals with a
    non-entry line shape. *)
val load_json : string -> Json.t list

(** [partition journal items] — split [items] into (already-journalled
    entries, still-to-run items), keyed by item id; journal lines for
    unknown ids are ignored. *)
val partition :
  string -> Runner.item list -> Report.entry list * Runner.item list
