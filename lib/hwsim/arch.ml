(* Architecture profiles for the operational simulator — the stand-in for
   the paper's hardware testbed (Section 5.1).  A profile enables the
   reordering features of the machine and sets the scheduling biases that
   govern how often each weak behaviour is exhibited:

   - store_buffer : writes are buffered and commit later (SB, PeterZ-NS);
   - fifo_drain   : the buffer drains in order (TSO) rather than
                    out of order per location (ARM/Power W-W reordering);
   - early_reads  : reads may execute ahead of program order when no
                    fence, dependency or same-location access intervenes
                    (MP, WRC, RWC weak outcomes);
   - alpha_stale  : reads may be satisfied from a stale memory snapshot
                    even through an address dependency, unless an
                    smp_read_barrier_depends intervenes (Alpha).

   None of the profiles executes writes early, so load-buffering (LB)
   outcomes are never produced — matching Table 5, where LB was never
   observed on any tested machine. *)

type t = {
  name : string;
  store_buffer : bool;
  fifo_drain : bool;
  early_reads : bool;
  alpha_stale : bool;
  p_prefetch : float; (* chance of attempting an early read per step *)
  p_drain : float; (* chance of preferring a buffer drain per step *)
  p_stale : float; (* chance a read uses the stale snapshot (Alpha) *)
}

(* Each profile adds to a weaker one: x86 buffers stores, ARM and Power
   also drain them out of order and read early, Alpha also reads stale. *)
let sc =
  {
    name = "SC";
    store_buffer = false;
    fifo_drain = true;
    early_reads = false;
    alpha_stale = false;
    p_prefetch = 0.;
    p_drain = 0.;
    p_stale = 0.;
  }

let x86 = { sc with name = "X86"; store_buffer = true; p_drain = 0.35 }

let armv7 =
  {
    x86 with
    name = "ARMv7";
    fifo_drain = false;
    early_reads = true;
    p_prefetch = 0.25;
    p_drain = 0.3;
  }

let armv8 = { armv7 with name = "ARMv8"; p_prefetch = 0.35 }
let power8 = { armv7 with name = "Power8"; p_prefetch = 0.45; p_drain = 0.25 }
let alpha = { armv8 with name = "Alpha"; alpha_stale = true; p_stale = 0.35 }

(* The Table 5 hardware columns. *)
let table5 = [ power8; armv8; armv7; x86 ]
let all = [ sc; x86; armv7; armv8; power8; alpha ]
let find name = List.find (fun a -> a.name = name) all
