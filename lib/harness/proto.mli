(** Wire protocol of the checking service ({!Serve}): one JSON object
    per line in each direction over a Unix-domain stream socket,
    request/response pairs correlated by a client-chosen [id] (clients
    may pipeline; the daemon may answer out of order).

    Every response carries a [class] — the service-side failure
    taxonomy.  [ok]/[fail]/[unknown]/[error] embed a full schema-v3
    {!Report} entry when a check actually ran; [overloaded] and
    [quarantined] are admission-control outcomes and carry only a
    message.  No request ever gets no answer, and no failure escapes
    the taxonomy. *)

(** {1 Requests} *)

type check = {
  test : string;  (** litmus concrete syntax *)
  model : string;  (** model name, as accepted by [herd_lk -model] *)
  timeout_ms : int option;
      (** per-request deadline; [None] = daemon default *)
  expected : Exec.Check.verdict option;  (** golden verdict, if any *)
}

type op =
  | Check of check
  | Ping
  | Stats
  | Metrics
      (** live telemetry snapshot: counters, gauges and p50/p95/p99
          latency/queue-wait percentiles as one [lkmetrics-1] object *)
  | Shutdown
  | Chaos_kill  (** fault injection: the worker dies (needs [--chaos-ops]) *)
  | Chaos_wedge of float
      (** fault injection: the worker hangs for [n] seconds without
          ticking its budget (needs [--chaos-ops]) *)

type request = {
  req_id : string;
  trace : string option;
      (** client-chosen distributed-trace id; the daemon spans the
          request's whole lifecycle under it and echoes it back
          (defaulting to the request id when absent) *)
  op : op;
}

val op_name : op -> string

(** [Error (msg, id)] on malformed input; [id] is recovered when the
    line parsed far enough to contain one, so the [error] response can
    still correlate. *)
val parse_request : string -> (request, string * string option) result

(** {2 Client-side request emission} *)

val check_line :
  id:string ->
  ?trace:string ->
  ?model:string ->
  ?timeout_ms:int ->
  ?expected:Exec.Check.verdict ->
  string ->
  string

(** [simple_line ~id op] for the payload-free ops
    ("ping"/"stats"/"metrics"/"shutdown"/"chaos_kill"). *)
val simple_line : id:string -> ?trace:string -> string -> string

val chaos_wedge_line : id:string -> ?trace:string -> float -> string

(** {1 Responses} *)

type cls =
  | Ok_  (** verdict matched expectation (or no expectation) *)
  | Fail  (** verdict contradicts the request's [expected] *)
  | Unknown  (** budget gave out — deadline, event/candidate caps *)
  | Error  (** classified failure: parse error, malformed request,
              oversized line, duplicate id *)
  | Overloaded  (** rejected at admission: queue at bound, nothing ran *)
  | Quarantined  (** poison request: killed two workers, or matches the
                    fingerprint of one that did *)

val cls_name : cls -> string
val cls_of_name : string -> cls option

(** The class a completed entry reports as ([Pass]→[Ok_], [Fail]→[Fail],
    [Gave_up]→[Unknown], [Err]→[Error]). *)
val cls_of_entry : Report.entry -> cls

(** [response_line ~id ~cls ?trace ?cache ?entry ?msg ?extra ()] — one
    response line (no trailing newline).  [trace] echoes the request's
    trace id, [cache] notes verdict-cache hit/miss, [entry] embeds the
    schema-v3 entry via {!Journal.line_of_entry}, [extra] appends
    pre-rendered JSON members (the [stats]/[metrics] payloads). *)
val response_line :
  id:string ->
  cls:cls ->
  ?trace:string ->
  ?cache:bool ->
  ?entry:Report.entry ->
  ?msg:string ->
  ?extra:(string * string) list ->
  unit ->
  string

(** Client-side view of one response line. *)
type response = {
  rsp_id : string;
  rsp_cls : cls;
  rsp_trace : string option;  (** trace id, echoed on traced requests *)
  rsp_cache_hit : bool option;  (** [None] when no cache field was sent *)
  rsp_verdict : string option;  (** entry's verdict (or [got]), if any *)
  rsp_status : string option;  (** entry's status tag, if any *)
  rsp_msg : string option;
  rsp_json : Journal.Json.t;  (** the whole line, for stats payloads *)
}

val parse_response : string -> (response, string) result
