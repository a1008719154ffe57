(** Fork supervision: the one place the harness forks.  {!Pool} (litmus
    items), {!Campaign} (seed shards) and {!Serve} (daemon requests)
    keep only their policy on top of it.

    [create] forks [jobs] reusable workers up front, each running the
    one job function the supervisor was created with.  A job is plain
    data, marshalled over a pipe to an idle worker; the worker resets
    the observability collector, runs the function, and sends the value
    back — plus its {!Obs.dump} when the parent's collector was on when
    the worker was forked.  A worker holds none of its parent's
    descriptors but its own two pipes, and exits when its job pipe
    closes.  With the crash flight recorder armed, a worker writes
    [<flight>/flight-<pid>.jsonl] (the last 8 spans per checkpoint),
    starting with a ["worker-start"] checkpoint.

    The parent SIGKILLs a worker at its job's deadline, waits only on
    the pids it forked (a caller's other children stay the caller's to
    reap), merges each dump tagged with the worker's pid, classifies
    every job's end exactly once, and replaces a worker that dies for
    any reason. *)

type 'a exit =
  | Returned of 'a  (** the job's value, sent back over the pipe *)
  | Exited of int
      (** the worker exited without sending a value: 3 if the job
          raised, 98 if the value could not be written, otherwise the
          code the job passed to [_exit] *)
  | Signaled of int  (** killed by a signal the supervisor did not send *)
  | Deadline  (** SIGKILLed by the supervisor at the job's deadline *)
  | Vanished  (** no longer a child of this process (reaped elsewhere) *)

type ('j, 'a) t
(** Workers running ['j -> 'a]; jobs and values must be marshalable
    without closures. *)

val create : ?flight:string -> jobs:int -> ('j -> 'a) -> ('j, 'a) t
(** Fork [jobs] (at least 1) workers running the function.  [flight]
    arms the crash flight recorder in every worker, in that directory
    (created if missing). *)

val running : ('j, 'a) t -> int
(** Workers busy with a job. *)

val free : ('j, 'a) t -> int
(** Idle workers. *)

val submit : ('j, 'a) t -> ?deadline:float -> 'j -> int
(** Send the job to an idle worker; [deadline] is in seconds from now.
    Returns the worker's pid.  Raises [Invalid_argument] when no worker
    is idle. *)

val wait : ('j, 'a) t -> ?until:float -> unit -> ('j * float * 'a exit) list
(** Block until some job ends, a deadline passes or the absolute time
    [until], whichever is first (a signal handler running also returns
    early), and return the jobs that ended, each with its wall-clock
    seconds.  Returns at once with nothing running and no [until]; an
    [until] in the past polls. *)

val fds : ('j, 'a) t -> Unix.file_descr list
(** The workers' result pipes, for a caller that multiplexes its own
    descriptors: when one is readable, {!wait} has something to
    collect. *)

val close : ('j, 'a) t -> unit
(** End every worker and reap it: idle ones see their job pipe close,
    busy ones are SIGKILLed.  The supervisor takes no jobs after. *)

val retry_delay : int -> float
(** Seconds before retrying a job after its [n]th worker loss ([n]
    from 1): 0.05 s, doubling.  The pool and the daemon both wait it. *)
