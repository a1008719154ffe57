(** Fork supervision: the one place the harness forks.  {!Pool} (a
    process per litmus item) and {!Campaign} (a process per seed shard)
    keep only their policy on top of it.

    Each job runs in its own child process, at most [jobs] at a time.
    The child resets the observability collector it inherited, arms the
    crash flight recorder when asked ([<flight>/flight-<pid>.jsonl],
    the last 8 spans per checkpoint), runs the job, and sends the
    job's value — plus its {!Obs.dump} when the parent's collector is
    on — back over a pipe before [_exit]ing.  The parent SIGKILLs a
    child at its job's deadline, waits only on the pids it spawned (a
    caller's other children stay the caller's to reap), merges each
    dump tagged with the worker's pid, and classifies every job's end
    exactly once. *)

type 'a exit =
  | Returned of 'a  (** the job's value, sent back over the pipe *)
  | Exited of int
      (** the child exited without sending a value: 3 if the job
          raised, 98 if the value could not be written, otherwise the
          code the job passed to [_exit] *)
  | Signaled of int  (** killed by a signal the supervisor did not send *)
  | Deadline  (** SIGKILLed by the supervisor at the job's deadline *)
  | Vanished  (** no longer a child of this process (reaped elsewhere) *)

type ('k, 'a) t
(** Running jobs, each tagged with a caller key ['k]; ['a] is the
    jobs' value, which must be marshalable. *)

val create : ?flight:string -> jobs:int -> unit -> ('k, 'a) t
(** [flight] arms the crash flight recorder in every child, in that
    directory (created if missing). *)

val running : ('k, 'a) t -> int
val free : ('k, 'a) t -> int
(** Slots left: [jobs] minus {!running}. *)

val spawn : ('k, 'a) t -> ?deadline:float -> 'k -> (unit -> 'a) -> int
(** Fork a child running the job; [deadline] is in seconds from now.
    Returns the child's pid.  Raises [Invalid_argument] when no slot is
    free. *)

val wait : ('k, 'a) t -> ?until:float -> unit -> ('k * float * 'a exit) list
(** Block until some child ends, a deadline passes or the absolute time
    [until], whichever is first (a signal handler running also returns
    early), and return the jobs that ended, each with its wall-clock
    seconds.  Returns at once with nothing running and no [until]. *)
