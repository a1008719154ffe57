(** The operational weak-memory machine: interprets Kir programs under an
    architecture profile with a randomised scheduler, playing the role of
    the paper's klitmus kernel-module runs.

    Memory is a single versioned multi-copy-atomic store; weak behaviours
    come from three per-profile mechanisms:
    - a per-thread store buffer with out-of-order drain (unless
      [fifo_drain]), smp_wmb group markers and head-only drain for
      releases;
    - early execution of reads within the current straight-line window,
      blocked by fences, acquires, same-location accesses and register
      dependencies — so address/data/control dependencies are respected;
    - the Alpha stale-snapshot mode, which lets even an address-dependent
      read observe old memory until an smp_read_barrier_depends.

    The scheduler draws per-run thread speeds log-uniformly and injects
    random preemption stalls (and honours [msleep]), because many races —
    notably the broken-RCU ablations — only open when one thread stalls
    for a long stretch.  RCU is native here: read-side nesting counters,
    grace periods that wait for the critical sections active at their
    start, and a callback thread for [call_rcu]/[rcu_barrier]. *)

(** A program in slot form, for any number of runs. *)
type prog

val compile : Kir.program -> prog

(** A machine state; {!run} returns the final one. *)
type state

(** Raised when a program dereferences a value that is not the address of
    a global, indexes an array outside its declared length, or similar
    execution errors. *)
exception Stuck of string

type run_result = {
  regs : (int * string * int) list;  (** (tid, register, final value) *)
  mem : (string * int) list;  (** final memory, one entry per location *)
}

(** Runs aborting after this many scheduler steps return [None]
    (livelock protection). *)
val max_steps : int

(** [run ~rng arch prog] executes [prog] once to completion under the
    architecture profile; [None] if the step cap was hit.  The order and
    count of its draws from [rng] are fixed: a seeded run's result
    depends on the seed alone.  Each run bumps the [hwsim.runs],
    [hwsim.steps] and [hwsim.aborted] counters. *)
val run : rng:Random.State.t -> Arch.t -> prog -> state option

(** Each thread's assigned registers, and every location initialised or
    written. *)
val result : state -> run_result

(** [observe prog obs] resolves the observables once; the function it
    returns reads their values (0 if never written) from a state. *)
val observe :
  prog -> [ `Mem of string | `Reg of int * string ] list -> state -> int array
