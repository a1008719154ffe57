(** Process-isolated parallel checking: one forked worker per item, up
    to [jobs] concurrently.  {!Runner.run_item}'s fault barrier is
    cooperative; the pool contains what it cannot — segfaults, runaway
    allocation, genuine hangs:

    - a hard watchdog [SIGKILL]s any worker outliving its deadline (the
      cooperative timeout plus slack), classified as [Gave_up];
    - a [Gc]-alarm heap cap in the worker turns runaway allocation into
      a classified entry before the kernel's OOM killer is involved;
    - a worker dying on a signal is reaped as [Err {cls = Crash _}] and
      retried with exponential backoff (the retry marked [retried]);
    - with a journal, entries are appended and flushed as they arrive;
      resuming recycles journalled items without re-running them;
    - SIGTERM/SIGINT mid-run trigger a graceful drain: dispatching
      stops, in-flight workers are reaped and journalled (watchdogs
      stay armed, so a wedged worker cannot hang the drain), the
      journal is flushed and closed, and the process exits 128+signal
      (143 SIGTERM, 130 SIGINT) — an interrupted [--journal] run is
      always resumable.  The previous handlers are restored on normal
      return.

    Entries come back in item order whatever the completion order, so
    [-j N] output is deterministic modulo timings.

    When the observability collector is on, each worker resets it after
    [fork], traces its own item, and returns its {!Obs.dump} with the
    entry over the result pipe; the parent merges every dump tagged
    with the worker's pid, so a parallel run still yields one coherent
    trace.  (A watchdog-killed worker loses its partial trace; its
    synthesised entry still appears in the report.) *)

type config = {
  jobs : int;  (** concurrent workers (>= 1) *)
  limits : Exec.Budget.limits;  (** per-item cooperative budget *)
  mem_limit_mb : int option;  (** hard heap cap enforced in the worker *)
  watchdog : float option;
      (** hard wall-clock kill, seconds; [None] = derive from the budget
          timeout (2x + 1s), unlimited if the budget has no timeout *)
  retries : int;  (** attempts after a crash (default 1) *)
  backoff : float;  (** seconds before the first crash retry, doubling *)
  lint : bool;
  flight_dir : string option;
      (** arm the crash flight recorder in every forked worker
          ({!Obs.flight_start} on [<dir>/flight-<pid>.jsonl]): a
          watchdog SIGKILL forfeits the result-pipe {!Obs.dump}, but
          the worker's last checkpoint — written at item start —
          survives as a post-mortem ([obs_report --postmortem]) *)
}

val default : config
(** 2 jobs, default budget, no heap cap, derived watchdog, one retry. *)

(** Worker exit codes above the user range (the parent maps them back
    to classified entries when the result pipe carries nothing usable);
    exposed for tests that inject misbehaving workers. *)

val exit_mem_cap : int
val exit_protocol : int

val run :
  ?config:config ->
  ?worker:(Runner.item -> Report.entry) ->
  ?journal:string ->
  ?resume:string ->
  ?explainer:(Exec.t -> Exec.Explain.t list) ->
  ?backend:Exec.Check.backend ->
  ?oracle:Exec.Oracle.t ->
  Runner.item list ->
  Report.t
(** [run ?config ?worker ?journal ?resume ?explainer ?oracle items] —
    check every item in its own process and summarise.  [worker]
    overrides the per-item computation (tests inject crashing
    workers); the default is {!Runner.run_item} under the config's
    budget, with the heap cap folded into the budget so cooperative
    paths classify allocation blowups before the Gc alarm must.
    [explainer] turns on verdict forensics in the default worker;
    explanations and the counterexample marshal back over the result
    pipe with the entry.  [oracle] (default {!Lkmm.oracle}) and
    [backend] (default [Batch]) select the checking oracle and engine
    through {!Exec.Oracle.run}.  [journal] appends each completed entry; [resume] recycles
    entries from an existing journal and runs only the missing items
    (pass the same path as [journal] to extend it in place). *)
