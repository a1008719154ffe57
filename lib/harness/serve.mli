(** Checking-as-a-service: a long-running daemon answering {!Proto}
    requests over a Unix-domain socket, checking them on reusable
    forked workers ({!Supervisor}).  Models are compiled once at
    startup, before the workers are forked, so every worker inherits
    them warm and keeps its static-prefix caches across requests; a
    request crosses to a worker as plain data.  Robustness comes from
    five mechanisms, each mapping a failure mode to a response class:

    - bounded queue with admission control — [overloaded], never
      unbounded accumulation;
    - absolute per-request deadlines armed into worker budgets
      ({!Exec.Budget.start_at}) — a slow request degrades to a
      structured [unknown], never a stuck worker;
    - supervision: a worker still busy past its job's deadline plus a
      grace period is SIGKILLed, a worker that dies for any reason is
      replaced, and a request whose worker is lost runs once more
      ({!Supervisor}), ending at once if past its deadline;
    - [quarantined] for a request lost twice, and strikes per
      fingerprint — one for an answer that needed the retry, two for a
      request lost twice — with two strikes quarantining the
      fingerprint at admission;
    - a content-addressed, journal-backed verdict cache ({!Vcache})
      that survives [kill -9] and serves repeated requests without
      touching a worker.

    SIGTERM/SIGINT (or a [shutdown] request) drain gracefully: queued
    requests are answered [overloaded], the checks the supervisor holds
    finish, retries included (up to their deadline plus grace), the
    workers are reaped, the cache journal is closed. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  workers : int;  (** worker processes (>= 1) *)
  queue_bound : int;  (** max queued requests before [overloaded] *)
  limits : Exec.Budget.limits;  (** per-check budget (timeout clamped
      to the request deadline) *)
  default_timeout : float;
      (** request deadline, seconds, when the client sends none *)
  max_line : int;  (** request lines over this many bytes are rejected *)
  wedge_grace : float;
      (** seconds past its job's deadline before a worker is killed *)
  cache_journal : string option;  (** verdict-cache persistence path *)
  fsync : bool;  (** fsync each cache insertion ({!Journal}) *)
  chaos_ops : bool;  (** accept [chaos_kill]/[chaos_wedge] requests *)
  backend : Exec.Check.backend;
      (** checking engine for every job ({!Exec.Oracle.run}):
          {!Exec.Oracle.default_backend}, the enumerator [Enum], by
          default; [Sat] the symbolic engine, falling back counted
          where a model ships none *)
  flight_dir : string option;
      (** arm the crash flight recorder ({!Obs.flight_start}) in the
          daemon and in every worker: periodic and per-job checkpoints
          land in [<dir>/flight-<pid>.jsonl], so a [kill -9], wedge or
          quarantine leaves a post-mortem ([obs_report --postmortem]);
          implies enabling the collector *)
  flight_interval : float;
      (** seconds between opportunistic flight checkpoints *)
}

val default : config
(** 2 workers, queue 64, 10 s default deadline, 1 MiB lines, 2 s grace,
    no cache journal, chaos ops off, flight recorder off. *)

val run : ?config:config -> unit -> int
(** Warm the models, fork the workers, bind the socket and serve until
    SIGTERM/SIGINT or a [shutdown] request; returns the exit code (0
    after a clean drain) once every worker is reaped.  Intended as the
    whole program of [lkserve]. *)

(** Synchronous client for the daemon (used by [lkserve --client], the
    chaos driver, the benchmark and the tests).  One request at a time:
    each call sends one line and blocks for one response line. *)
module Client : sig
  type t

  val connect : string -> t
  (** Connect to the daemon's socket; raises [Unix.Unix_error] if the
      daemon is not there. *)

  val check :
    t ->
    ?id:string ->
    ?trace:string ->
    ?model:string ->
    ?timeout_ms:int ->
    ?expected:Exec.Check.verdict ->
    string ->
    (Proto.response, string) result
  (** Check one litmus source text; [id] defaults to a fresh
      per-connection id (pass one explicitly to exercise duplicate-id
      handling); [trace] names the request's distributed trace. *)

  val ping : t -> (Proto.response, string) result
  val stats : t -> (Proto.response, string) result

  val metrics : t -> (Proto.response, string) result
  (** Live telemetry snapshot; the response's [metrics] member is one
      [lkmetrics-1] object (see [ci/metrics.schema.json]). *)

  val shutdown : t -> (Proto.response, string) result
  val chaos_kill : ?trace:string -> t -> (Proto.response, string) result
  val chaos_wedge : ?trace:string -> t -> float -> (Proto.response, string) result

  val send : t -> string -> unit
  (** Raw line send (protocol-edge tests build their own lines); on a
      closed or reset connection it is dropped, and {!recv} errs. *)

  val recv : t -> (Proto.response, string) result
  (** Read one response line; a closed or reset connection is [Error]. *)

  val request : t -> string -> (Proto.response, string) result

  val close : t -> unit
end
