(** Pipeline observability: spans, counters, histograms.

    One process-global collector, off by default.  Instrumentation
    points throughout the tree guard on {!enabled}; when the collector
    is off a probe is a load and a branch — no allocation, no clock
    read.  When on, spans land in a fixed-capacity ring buffer (old
    spans are overwritten, the drop count is reported) and counters and
    histograms accumulate in name-keyed registries that survive
    {!reset}, so [make] at module level is safe.

    The fork boundary: {!Harness.Supervisor}'s workers call {!reset}
    before each job, record into their own copy of the collector, and
    return a {!dump} over the result pipe; the parent {!merge}s each
    dump, remapping span ids and tagging spans with the worker pid. *)

(** {1 Enable switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Clock} *)

val now_us : unit -> float
(** Microseconds since collector creation; clamped non-decreasing. *)

(** {1 Spans} *)

type span = private {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] at top level *)
  mutable tid : int;  (** [0] = this process; worker pid after {!merge} *)
  name : string;
  item : string;  (** test/item id when known, [""] otherwise *)
  start_us : float;
  mutable dur_us : float;  (** [-1.] while the span is open *)
}

val with_span : ?item:string -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span named [name], nested
    under the innermost open span.  Exception-safe; calls [f] directly
    when the collector is disabled. *)

val record :
  ?item:string ->
  ?parent:int ->
  ?tid:int ->
  start_us:float ->
  dur_us:float ->
  string ->
  unit
(** [record ~start_us ~dur_us name] pushes an explicitly timed,
    already-closed span — the serve daemon's request-lifecycle spans
    (admission → queue wait → reply) are assembled this way, outside
    any open-span stack.  [tid] defaults to the calling domain's id;
    never touches the nesting stacks.  No-op when disabled. *)

val event : ?item:string -> string -> unit
(** A zero-duration span at the current instant (retry and quarantine
    transitions on a request's trace).  No-op when disabled. *)

val spans : unit -> span list
(** Recorded spans, oldest first (open spans have [dur_us = -1.]). *)

val dropped : unit -> int
(** Spans lost to ring-buffer overwrite since the last {!reset}. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** Find-or-create; idempotent per name, survives {!reset}. *)

  val add : t -> int -> unit
  val incr : t -> unit

  val add_always : t -> int -> unit
  (** Like {!add} but unconditional: service-level counters (the
      verdict cache's hits/misses/stores) feed the always-on metrics
      surface whether or not tracing is enabled.  Not for hot-path
      probes. *)

  val incr_always : t -> unit
  val value : t -> int
  val name : t -> string
end

(** {1 Histograms} *)

module Histogram : sig
  type t

  val make : string -> t
  (** Find-or-create; idempotent per name, survives {!reset}. *)

  val observe : t -> float -> unit
  (** Record one observation (microseconds by convention: log2-µs
      buckets plus count/sum/min/max). *)

  val observe_always : t -> float -> unit
  (** Like {!observe} but unconditional: service-level metrics (daemon
      latency and queue-wait distributions) accumulate even when the
      tracing collector is off, so a metrics snapshot always has real
      percentiles.  Not for hot-path probes. *)

  val count : t -> int
  val sum : t -> float
  val name : t -> string
end

(** {1 Snapshot, reset, fork-boundary merge} *)

val counters : unit -> (string * int) list
(** Non-zero counters, sorted by name. *)

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : int array;
}

val histograms : unit -> (string * hist_summary) list
(** Non-empty histograms, sorted by name. *)

val hist_snapshot : Histogram.t -> hist_summary
(** A consistent copy of one histogram's cells (taken under the
    collector lock), whether or not the collector is enabled. *)

val quantile : hist_summary -> float -> float
(** [quantile h q] estimates the [q]-th quantile ([0..1]) from the
    log2-µs buckets, interpolating within the matched bucket and
    clamped to the observed min/max; [0.] on an empty histogram. *)

val hist_metrics_json : hist_summary -> string
(** The metrics-snapshot latency object:
    [{"count", "p50", "p95", "p99", "max", "mean"}] (µs). *)

val reset : unit -> unit
(** Clear spans and zero all counters/histograms in place (registered
    handles stay valid).  Supervisor workers call this before each
    job. *)

type dump
(** Marshal-safe snapshot of the collector (spans, drop count,
    counters, histograms); open spans are closed at dump time. *)

val dump : unit -> dump
val empty_dump : dump

val merge : ?tid:int -> dump -> unit
(** Fold a dump into this collector: span ids are remapped to fresh
    local ids (parents follow), spans are tagged with [tid], counters
    and histogram cells add up. *)

(** {1 Export} *)

val json_escape : string -> string
(** A JSON string literal's contents; the tree's one escaper. *)

val to_jsonl : unit -> string
(** One JSON object per line: a [meta] line, then [span], [counter] and
    [hist] lines (a ["type"] field discriminates). *)

val to_chrome : unit -> string
(** Chrome trace-event JSON ([ph:"X"] complete events, counters as
    [ph:"C"]); loads in chrome://tracing and Perfetto. *)

val write_jsonl : string -> unit
(** Atomic (temp + rename) write of {!to_jsonl}. *)

val write_chrome : string -> unit
(** Atomic (temp + rename) write of {!to_chrome}. *)

val span_totals : unit -> (string * (int * float)) list
(** Per-span-name [(count, total_us)] aggregates, sorted by name. *)

val summary_json : unit -> string
(** One JSON object — counters, per-phase span totals, histogram
    summaries, drop count — for embedding in runner reports. *)

(** {1 Crash flight recorder}

    A SIGKILLed pool worker, a wedged serve worker or a poison campaign
    seed dies without reaching any export path.  While armed, the
    collector appends checkpoint lines — each a self-contained
    [lkflight-1] JSON object with the last few spans (open ones
    flagged) and the counters — to an append-only journal, flushed per
    line, so the last checkpoint survives any kill.  Checkpoints are
    written opportunistically from the recording paths once the
    interval has elapsed, and on demand via {!flight_checkpoint}
    (e.g. at the start of each job, so a death mid-job always leaves
    the victim's id on disk).  Readers drop a torn tail, per the
    tree's journal conventions. *)

val flight_start : ?interval_us:float -> ?last:int -> string -> unit
(** Arm the recorder on [path] (append mode; a restart cannot erase a
    previous life's evidence).  [interval_us] defaults to 500ms worth;
    [last] (default 32) bounds spans per checkpoint. *)

val flight_active : unit -> bool

val flight_checkpoint : ?reason:string -> unit -> unit
(** Force one checkpoint line now (no-op when not armed). *)

val flight_stop : unit -> unit
(** Write a final ["stop"] checkpoint and disarm. *)
