(** Fork supervision: the one place the harness forks, and the one
    failure ladder.  {!Pool} (litmus items), {!Campaign} (seed shards)
    and {!Serve} (daemon requests) keep only what they do with a
    returned value or a lost job.

    [create] forks [jobs] reusable workers up front, each running the
    one job function the supervisor was created with.  A job is plain
    data, marshalled over a pipe to an idle worker; the worker resets
    the observability collector, runs the function, and sends the value
    back — plus its {!Obs.dump} when the parent's collector was on when
    the worker was forked.  A worker holds none of its parent's
    descriptors but its own two pipes, and exits when its job pipe
    closes, or, even mid-job, within about a second of its parent's
    death: no caller hunts orphans.  A job therefore sees a [SIGALRM]
    every 0.2 s; channel I/O and [Unix.sleepf] carry on across it, a
    raw blocking [Unix] call may fail with [EINTR].  With the crash
    flight recorder armed, a worker writes [<flight>/flight-<pid>.jsonl]
    (the last 8 spans per checkpoint), starting with a ["worker-start"]
    checkpoint.

    The parent SIGKILLs a worker at its job's deadline, waits only on
    the pids it forked (a caller's other children stay the caller's to
    reap), merges each dump tagged with the worker's pid, and replaces
    a worker that dies for any reason.  Every end that returns no value
    is a loss.  After a job's first loss the supervisor runs it again,
    0.05 s later, with [~attempt:2] and the same relative deadline (a
    job with an absolute deadline checks it itself on attempt 2, as
    {!Serve}'s do); a due retry takes the next idle worker before any
    new job.  The second loss ends the job as {!Lost}. *)

(** Why a worker returned no value. *)
type loss =
  | Exited of int
      (** the worker exited: 3 if the job raised, 98 if the value could
          not be written, otherwise the code the job passed to
          [_exit] *)
  | Signaled of int  (** killed by a signal the supervisor did not send *)
  | Deadline  (** SIGKILLed by the supervisor at the job's deadline *)
  | Vanished  (** no longer a child of this process (reaped elsewhere) *)

type 'a exit =
  | Returned of 'a  (** the value of attempt 1 or, after a loss, of 2 *)
  | Lost of loss * loss
      (** both attempts lost: the first loss, then the second *)

type ('j, 'a) t
(** Workers running ['j -> 'a]; jobs and values must be marshalable
    without closures. *)

val create :
  ?flight:string -> jobs:int -> (attempt:int -> 'j -> 'a) -> ('j, 'a) t
(** Fork [jobs] (at least 1) workers running the function, which is
    told whether it runs a job for the first time ([~attempt:1]) or
    after a loss ([~attempt:2]).  [flight] arms the crash flight
    recorder in every worker, in that directory (created if
    missing). *)

val running : ('j, 'a) t -> int
(** Jobs held: busy on a worker or waiting out their retry delay.  A
    caller loops while it is above 0. *)

val busy : ('j, 'a) t -> int
(** Jobs busy on a worker. *)

val retrying : ('j, 'a) t -> int
(** Jobs waiting out their retry delay. *)

val free : ('j, 'a) t -> int
(** Idle workers: {!wait} gives due retries theirs before it returns,
    so a caller submitting after it takes none a due retry wanted. *)

val submit : ('j, 'a) t -> ?deadline:float -> 'j -> unit
(** Send the job to an idle worker; [deadline] is in seconds from the
    start of each attempt.  Raises [Invalid_argument] when no worker is
    idle. *)

val wait : ('j, 'a) t -> ?until:float -> unit -> ('j * float * 'a exit) list
(** Block until some job ends, a deadline passes, a retry falls due
    with a worker idle to take it, or the absolute time [until],
    whichever is first (a signal handler running also returns early),
    and return the jobs that ended, each with the wall-clock seconds of
    its last attempt.  Returns at once with nothing running and no
    [until]; an [until] in the past polls. *)

val fds : ('j, 'a) t -> Unix.file_descr list
(** The workers' result pipes, for a caller that multiplexes its own
    descriptors: when one is readable, {!wait} has something to
    collect. *)

val close : ('j, 'a) t -> unit
(** End every worker and reap it: idle ones see their job pipe close,
    busy ones are SIGKILLed; pending retries are dropped.  The
    supervisor takes no jobs after. *)
