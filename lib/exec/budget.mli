(** Per-test resource budgets: wall-clock timeout, max events per
    candidate execution, max candidate executions.  Enumeration and
    interpretation raise {!Exceeded} when a limit trips; callers turn
    that into a structured [Unknown] verdict instead of hanging. *)

type limits = {
  timeout : float option;  (** wall-clock seconds per test *)
  max_events : int option;  (** events in one candidate execution *)
  max_candidates : int option;  (** candidate executions enumerated *)
  max_heap_mb : int option;  (** major-heap ceiling, megabytes *)
}

val unlimited : limits

(** [limits ?timeout ?max_events ?max_candidates ?max_heap_mb ()] —
    omitted fields are unbounded. *)
val limits :
  ?timeout:float ->
  ?max_events:int ->
  ?max_candidates:int ->
  ?max_heap_mb:int ->
  unit ->
  limits

(** The batch runner's defaults: 10 s, 256 events, 200k candidates,
    unbounded heap. *)
val default : limits

val is_unlimited : limits -> bool

type reason =
  | Timed_out of float  (** the wall-clock limit, seconds *)
  | Too_many_events of int * int  (** seen, limit *)
  | Too_many_candidates of int  (** limit *)
  | Heap_exceeded of int  (** the heap limit, megabytes *)

val reason_to_string : reason -> string

exception Exceeded of reason

(** A running budget: deadline armed, candidate counter live. *)
type t

(** [start limits] arms the deadline and zeroes the counters. *)
val start : limits -> t

(** [start_at ~deadline limits] arms against an *absolute* deadline
    (Unix time): the relative timeout is clamped to what remains of the
    deadline at call time, so queue wait before the budget was armed
    counts against the request.  A deadline already in the past yields
    a zero timeout whose first {!check_time} trips. *)
val start_at : deadline:float -> limits -> t

(** [fork b] — a budget for a second engine run within the call [b]
    bounds: the same limits and absolute deadline (one timeout bounds
    the whole call), and a candidate count of its own. *)
val fork : t -> t

(** Candidate executions materialised so far (partial-progress report). *)
val candidates_seen : t -> int

(** Raise {!Exceeded} if the deadline has passed (samples the clock). *)
val check_time : t -> unit

(** Current major-heap size in megabytes (via [Gc.quick_stat]). *)
val heap_mb : unit -> int

(** Raise {!Exceeded} if the major heap is over the cap. *)
val check_heap : t -> unit

(** Cheap probe for hot loops: checks the clock (and heap cap) every
    256th call. *)
val tick : t -> unit

(** [check_events b n] — fail if one candidate has more than the cap. *)
val check_events : t -> int -> unit

(** Count one materialised candidate execution against the cap. *)
val count_candidate : t -> unit

(** [claim b n] — fail early if [n] further candidates would blow the
    cap (arithmetic pre-check, nothing materialised yet). *)
val claim : t -> int -> unit

(** Saturating multiply/factorial for pre-enumeration size estimates. *)
val sat_mul : int -> int -> int

val sat_fact : int -> int
