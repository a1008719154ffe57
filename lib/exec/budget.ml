(* Per-test resource budgets (robustness layer).

   Herd-style enumeration is combinatorially explosive: rf/co witness
   counts grow super-exponentially with test size, so a single
   pathological test can hang or exhaust memory for a whole batch.  A
   budget bounds one check along three axes — wall-clock time, events
   per candidate execution, and candidate executions enumerated — and
   the enumeration/interpretation code raises {!Exceeded} as soon as a
   limit is hit, letting callers report a structured [Unknown] verdict
   instead of hanging.

   [limits] is the immutable configuration; [t] is a running instance
   with the deadline armed and the candidate counter live.  Time is
   checked through {!tick}, which samples the clock once every few
   hundred calls so the happy path stays cheap. *)

type limits = {
  timeout : float option; (* wall-clock seconds per test *)
  max_events : int option; (* events in one candidate execution *)
  max_candidates : int option; (* candidate executions enumerated *)
  max_heap_mb : int option; (* major-heap ceiling, megabytes *)
}

let unlimited =
  { timeout = None; max_events = None; max_candidates = None;
    max_heap_mb = None }

let limits ?timeout ?max_events ?max_candidates ?max_heap_mb () =
  { timeout; max_events; max_candidates; max_heap_mb }

(* Defaults used by the batch runner: loose enough for every legitimate
   test in the battery/corpus, tight enough to cut off explosions. *)
let default =
  { timeout = Some 10.0; max_events = Some 256;
    max_candidates = Some 200_000; max_heap_mb = None }

let is_unlimited l =
  l.timeout = None && l.max_events = None && l.max_candidates = None
  && l.max_heap_mb = None

type reason =
  | Timed_out of float (* the wall-clock limit, seconds *)
  | Too_many_events of int * int (* seen, limit *)
  | Too_many_candidates of int (* limit *)
  | Heap_exceeded of int (* the heap limit, megabytes *)

let reason_to_string = function
  | Timed_out s -> Printf.sprintf "timeout after %gs" s
  | Too_many_events (n, m) -> Printf.sprintf "%d events exceed cap %d" n m
  | Too_many_candidates m -> Printf.sprintf "more than %d candidate executions" m
  | Heap_exceeded mb -> Printf.sprintf "heap exceeded %dMB" mb

exception Exceeded of reason

type t = {
  lim : limits;
  deadline : float option; (* absolute, Unix time *)
  mutable n_candidates : int;
  mutable ticks : int;
}

let start lim =
  {
    lim;
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) lim.timeout;
    n_candidates = 0;
    ticks = 0;
  }

(* Deadline propagation (checking-as-a-service): a request admitted at
   time T with deadline D has already spent queue time by the moment a
   worker picks it up, so the worker arms the budget against the
   *absolute* deadline — the relative timeout is clamped to whatever of
   it remains.  A deadline in the past yields a zero timeout: the first
   [check_time] trips, producing a structured [Timed_out] instead of
   any work. *)
let start_at ~deadline lim =
  let remaining = Float.max 0. (deadline -. Unix.gettimeofday ()) in
  let timeout =
    match lim.timeout with
    | Some t -> Some (Float.min t remaining)
    | None -> Some remaining
  in
  start { lim with timeout }

(* A second engine run inside the same call: the deadline is shared, so
   one timeout bounds the whole call, and the candidate count starts
   afresh, so each run's caps trip where they would alone. *)
let fork b = { b with n_candidates = 0; ticks = 0 }

let candidates_seen b = b.n_candidates

let check_time b =
  match (b.deadline, b.lim.timeout) with
  | Some d, Some s when Unix.gettimeofday () > d ->
      raise (Exceeded (Timed_out s))
  | _ -> ()

(* Major-heap words, converted to MB (a word is 8 bytes on every target
   we build for).  [quick_stat] does not walk the heap, so this is cheap
   enough for the sampled probe. *)
let heap_mb () = (Gc.quick_stat ()).Gc.heap_words * 8 / (1024 * 1024)

let check_heap b =
  match b.lim.max_heap_mb with
  | Some mb when heap_mb () > mb -> raise (Exceeded (Heap_exceeded mb))
  | _ -> ()

(* Cheap progress probe for hot loops: samples the clock (and the heap,
   when capped) every 256 calls. *)
let tick b =
  b.ticks <- b.ticks + 1;
  if b.ticks land 255 = 0 then begin
    check_time b;
    check_heap b
  end

let check_events b n =
  match b.lim.max_events with
  | Some m when n > m -> raise (Exceeded (Too_many_events (n, m)))
  | _ -> ()

(* One more candidate execution was materialised. *)
let count_candidate b =
  b.n_candidates <- b.n_candidates + 1;
  (match b.lim.max_candidates with
  | Some m when b.n_candidates > m -> raise (Exceeded (Too_many_candidates m))
  | _ -> ());
  tick b

(* [claim b n] pre-checks an arithmetic estimate: enumerating [n] further
   candidates would blow the cap, so fail before materialising anything.
   Estimates are computed with saturating arithmetic by the caller. *)
let claim b n =
  match b.lim.max_candidates with
  | Some m when n > m - b.n_candidates -> raise (Exceeded (Too_many_candidates m))
  | _ -> ()

(* Saturating helpers for pre-enumeration size estimates. *)
let sat_cap = max_int / 2

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a >= sat_cap / b then sat_cap
  else a * b

let sat_fact n =
  let rec go acc i = if i > n then acc else go (sat_mul acc i) (i + 1) in
  if n <= 1 then 1 else go 1 2
