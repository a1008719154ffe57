(** Content-addressed verdict cache for the checking service.

    Keyed on [Digest (schema_version NUL model_key NUL source)]: the
    report schema version ({!Report.schema_version}, so an entry whose
    counts mean something else is never served), the test's exact
    source text and the model's full identity ([model_key] must include
    a contents digest for [.cat]-file models — {!Serve} arranges
    this).
    Only deterministic outcomes ([Pass]/[Fail] entries) are cached;
    [Gave_up] is budget-relative and [Err] may be transient, so both
    always re-run.

    With [?journal], each insertion appends one JSONL line (the entry's
    {!Journal} line plus a leading ["vkey"] member) through
    {!Journal.write_line}, and {!create} recovers the file first with
    the same torn-tail tolerance as {!Journal.load} — a daemon killed
    mid-append restarts with every complete insertion and without the
    torn one.  Hit/miss/store counts surface as the Obs counters
    [serve.cache.hits]/[.misses]/[.stores]. *)

type t

val key : model_key:string -> source:string -> string
(** The cache key: hex digest of the schema version, model identity and
    source text. *)

val create :
  ?journal:string -> ?fsync:bool -> ?compact_threshold:int -> unit -> t
(** Recover [journal] (if given and present), then open it for append;
    [fsync] forces each insertion to stable storage
    ({!Journal.open_writer}).

    Across restarts the journal accumulates duplicate keys, torn tails
    and foreign garbage: replay cost grows without bound even though
    the live set does not.  When recovery reads at least
    [compact_threshold] raw lines (default 8192) and more lines than
    live bindings, the file is compacted on startup — rewritten
    atomically (temp + fsync + rename) to exactly the live bindings,
    duplicate keys resolved last-wins — so long-lived [lkserve]
    instances never replay unbounded history. *)

val find : t -> string -> Report.entry option
(** Lookup by key; counts a hit or a miss. *)

val store : t -> string -> Report.entry -> unit
(** Insert and journal a completed entry.  No-op for non-cacheable
    entries ([Gave_up]/[Err]) and for keys already present (first
    verdict wins; identical by construction). *)

val size : t -> int
val hits : t -> int
val misses : t -> int

val close : t -> unit
(** Close the journal writer (bindings stay usable in memory). *)
