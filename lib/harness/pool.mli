(** Process-isolated parallel checking: items run on [jobs] reusable
    forked workers ({!Supervisor}), and a crash, deadline kill or
    heap-cap exit ends only the worker it happened in.
    {!Runner.run_item}'s fault barrier is cooperative; the pool contains
    what it cannot — segfaults, runaway allocation, genuine hangs:

    - a worker outliving its deadline (twice the budget's timeout plus
      one second; none without a timeout) is SIGKILLed and classified
      as [Gave_up (Timed_out _)];
    - a [Gc]-alarm heap cap in the worker turns runaway allocation into
      a classified entry before the kernel's OOM killer is involved;
    - a lost item (deadline kill, heap-cap exit, signal, any other
      exit) is retried once by the {!Supervisor}; an entry returned by
      the retry is marked [retried], and a second loss is classified
      like the first would have been — [Gave_up (Timed_out _)],
      [Gave_up (Heap_exceeded _)], [Err {cls = Crash _}] or an
      internal [Err] — and marked [retried] too;
    - with a journal, entries are appended and flushed as they arrive;
      resuming recycles journalled items without re-running them;
    - SIGTERM/SIGINT mid-run trigger a graceful drain: dispatching
      stops, the items the supervisor holds (retries included) finish
      and are journalled (deadlines stay armed, so a wedged worker
      cannot hang the drain), the
      journal is flushed and closed, and the process exits 128+signal
      (143 SIGTERM, 130 SIGINT) — an interrupted [--journal] run is
      always resumable.  The previous handlers are restored on normal
      return.

    Entries come back in item order whatever the completion order, so
    [-j N] output is deterministic modulo timings.  When the
    observability collector is on, every worker's spans and counters
    merge into it tagged with the worker's pid (a killed worker loses
    its partial trace; its synthesised entry still appears in the
    report). *)

type config = {
  jobs : int;  (** concurrent workers (>= 1) *)
  limits : Exec.Budget.limits;  (** per-item cooperative budget *)
  mem_limit_mb : int option;  (** hard heap cap enforced in the worker *)
  flight_dir : string option;
      (** arm the crash flight recorder in every forked worker
          ({!Supervisor.create}): a deadline SIGKILL forfeits the
          worker's {!Obs.dump}, but its last checkpoint — written at
          item start — survives as a post-mortem
          ([obs_report --postmortem]) *)
}

val default : config
(** 2 jobs, default budget, no heap cap. *)

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
    check every item on the pool's worker processes and summarise.
    [worker]
    overrides the per-item computation (tests inject crashing
    workers); the default is {!Runner.run_item} under the config's
    budget, with the heap cap folded into the budget so cooperative
    paths classify allocation blowups before the Gc alarm must.
    [explainer] turns on verdict forensics in the default worker;
    explanations and the counterexample marshal back over the result
    pipe with the entry.  [oracle] (default {!Lkmm.oracle}) and
    [backend] (default {!Exec.Oracle.default_backend}) select the
    checking oracle and engine through {!Exec.Oracle.run}.  [journal]
    appends each completed entry; [resume] recycles entries from an
    existing journal and runs only the missing items (pass the same
    path as [journal] to extend it in place). *)
