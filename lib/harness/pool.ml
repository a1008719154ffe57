(* Process-isolated parallel checking (robustness layer).

   {!Runner.run_item}'s fault barrier is cooperative: it catches
   exceptions and budget trips, but a segfault, a stack overflow in an
   un-instrumented path, a runaway allocation or a genuine hang is
   beyond it.  The pool gives every item its own process:

   - [fork] one worker per item, up to [jobs] concurrently; the worker
     runs the ordinary {!Runner.run_item} and marshals its entry back
     over a pipe, so one dying worker cannot take the battery down;
   - a hard watchdog in the parent [SIGKILL]s any worker that outlives
     its deadline (the cooperative timeout plus slack), containing
     infinite loops that never tick a budget;
   - an rlimit-style memory cap in the worker (a [Gc] alarm checked at
     every major collection, plus the budget's own sampled probe)
     turns runaway allocation into a classified [Heap_exceeded] entry
     before the kernel's OOM killer gets involved;
   - a worker that dies on a signal is reaped and classified as
     [Err {cls = Crash signal}]; it is retried with exponential
     backoff, separating flaky crashes (the retry's entry is marked
     [retried]) from deterministic ones (a crash on the final attempt
     is final);
   - with a journal, every completed entry is appended and flushed as
     it arrives, and a previous journal can be resumed: already-
     journalled items are recycled without re-running.

   Report entries come back in item order whatever the completion
   order, so [-j N] output is deterministic modulo timings. *)

type config = {
  jobs : int; (* concurrent workers (>= 1) *)
  limits : Exec.Budget.limits; (* per-item cooperative budget *)
  mem_limit_mb : int option; (* hard heap cap enforced in the worker *)
  watchdog : float option;
      (* hard wall-clock kill, seconds; [None] = derive from the budget
         timeout (2x + 1s), unlimited if the budget has no timeout *)
  retries : int; (* attempts after a crash (default 1) *)
  backoff : float; (* seconds before the first crash retry, doubling *)
  lint : bool;
  flight_dir : string option;
      (* arm the crash flight recorder in every forked worker: each
         checkpoints its obs ring to <dir>/flight-<pid>.jsonl, so the
         watchdog's SIGKILL (which forfeits the result-pipe dump) still
         leaves a post-mortem trace of the item that died *)
}

let default =
  {
    jobs = 2;
    limits = Exec.Budget.default;
    mem_limit_mb = None;
    watchdog = None;
    retries = 1;
    backoff = 0.05;
    lint = true;
    flight_dir = None;
  }

(* Worker exit codes above the user range: the parent maps them back to
   classified entries when the result pipe carries nothing usable. *)
let exit_mem_cap = 97 (* the Gc-alarm heap cap fired *)
let exit_protocol = 98 (* the worker could not write its entry *)

let derived_watchdog cfg =
  match cfg.watchdog with
  | Some s -> Some s
  | None ->
      Option.map (fun t -> (2. *. t) +. 1.) cfg.limits.Exec.Budget.timeout

(* ------------------------------------------------------------------ *)
(* The worker side                                                     *)
(* ------------------------------------------------------------------ *)

(* Runs in the child after [fork]: compute the entry, marshal it out,
   [_exit] without touching the parent's buffers or [at_exit] hooks.

   Observability crosses the fork boundary here: the child resets the
   collector it inherited (the parent's spans must not be re-reported),
   records its own item, and ships an {!Obs.dump} alongside the entry;
   the parent merges it tagged with the worker's pid.  A worker the
   watchdog kills never reaches the marshalling step, so its partial
   trace is lost with it — the entry the parent synthesises still
   appears in the report, just without spans. *)
let worker_main cfg ~worker fd (item : Runner.item) =
  (match cfg.mem_limit_mb with
  | None -> ()
  | Some mb ->
      (* checked at the end of every major collection: catches runaway
         allocation even in code that never ticks a budget *)
      ignore
        (Gc.create_alarm (fun () ->
             if Exec.Budget.heap_mb () > mb then Unix._exit exit_mem_cap)));
  if Obs.enabled () then Obs.reset ();
  (match cfg.flight_dir with
  | Some dir ->
      (* Post-fork: arm this worker's own recorder (the parent never
         armed one, so there is no inherited channel to contend with)
         and leave the item's id on disk before any work happens — a
         watchdog SIGKILL mid-item then always has a post-mortem. *)
      if not (Obs.enabled ()) then Obs.set_enabled true;
      (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
      Obs.flight_start
        (Filename.concat dir
           (Printf.sprintf "flight-%d.jsonl" (Unix.getpid ())))
  | None -> ());
  let entry : Runner.entry =
    if Obs.flight_active () then
      Obs.with_span ~item:item.Runner.id "pool.item" (fun () ->
          Obs.flight_checkpoint ~reason:"item-start" ();
          worker item)
    else worker item
  in
  if Obs.flight_active () then Obs.flight_stop ();
  let dump = if Obs.enabled () then Some (Obs.dump ()) else None in
  match
    let oc = Unix.out_channel_of_descr fd in
    Marshal.to_channel oc (entry, dump) [];
    flush oc
  with
  | () -> Unix._exit 0
  | exception _ -> Unix._exit exit_protocol

(* ------------------------------------------------------------------ *)
(* The parent side                                                     *)
(* ------------------------------------------------------------------ *)

type running = {
  pid : int;
  idx : int; (* position in the original item list *)
  item : Runner.item;
  fd : Unix.file_descr;
  buf : Buffer.t; (* marshalled entry, accumulated as it streams in *)
  mutable eof : bool;
  started : float;
  deadline : float option;
  mutable watchdog_killed : bool;
  attempt : int; (* 0 = first run, 1 = first retry, ... *)
}

type queued = {
  q_idx : int;
  q_item : Runner.item;
  q_attempt : int;
  not_before : float; (* crash-retry backoff gate *)
}

let spawn cfg ~worker idx attempt (item : Runner.item) =
  let r, w = Unix.pipe ~cloexec:false () in
  (* the child inherits the parent's pending output; flush so nothing
     is written twice *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      worker_main cfg ~worker w item
  | pid ->
      Unix.close w;
      Unix.set_nonblock r;
      let now = Unix.gettimeofday () in
      {
        pid;
        idx;
        item;
        fd = r;
        buf = Buffer.create 4096;
        eof = false;
        started = now;
        deadline = Option.map (fun s -> now +. s) (derived_watchdog cfg);
        watchdog_killed = false;
        attempt;
      }

(* Pull whatever the (non-blocking) pipe holds; workers stream their
   entry and close, so big marshalled results cannot deadlock against a
   full pipe buffer. *)
let drain r =
  if not r.eof then begin
    let chunk = Bytes.create 65536 in
    let rec go () =
      match Unix.read r.fd chunk 0 (Bytes.length chunk) with
      | 0 -> r.eof <- true
      | n ->
          Buffer.add_subbytes r.buf chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  end

(* Classify a reaped worker into a final entry, or a crash eligible for
   retry. *)
let classify_exit cfg (r : running) status =
  let mk status_ =
    {
      Runner.item_id = r.item.Runner.id;
      status = status_;
      time = Unix.gettimeofday () -. r.started;
      n_candidates = 0;
      retried = r.attempt > 0;
      result = None;
    }
  in
  match status with
  | Unix.WEXITED 0 -> (
      match
        (Marshal.from_string (Buffer.contents r.buf) 0
          : Runner.entry * Obs.dump option)
      with
      | entry, dump ->
          if Obs.enabled () then Option.iter (Obs.merge ~tid:r.pid) dump;
          (`Done, { entry with Runner.retried = r.attempt > 0 })
      | exception _ ->
          ( `Done,
            mk
              (Runner.Err
                 {
                   Runner.cls = Runner.Internal;
                   msg = "worker result truncated";
                   line = None;
                 }) ))
  | Unix.WEXITED n when n = exit_mem_cap ->
      let mb = Option.value ~default:0 cfg.mem_limit_mb in
      (`Done, mk (Runner.Gave_up (Exec.Budget.Heap_exceeded mb)))
  | Unix.WEXITED n ->
      ( `Done,
        mk
          (Runner.Err
             {
               Runner.cls = Runner.Internal;
               msg = Printf.sprintf "worker exited with code %d" n;
               line = None;
             }) )
  | Unix.WSIGNALED _ when r.watchdog_killed ->
      (* we killed it for overrunning the hard deadline: that is budget
         exhaustion, not a crash *)
      let wd = Option.value ~default:0. (derived_watchdog cfg) in
      (`Done, mk (Runner.Gave_up (Exec.Budget.Timed_out wd)))
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      let entry =
        mk
          (Runner.Err
             {
               Runner.cls = Runner.Crash s;
               msg = "worker killed by " ^ Exec.Check.signal_name s;
               line = None;
             })
      in
      if r.attempt < cfg.retries then (`Retry, entry) else (`Done, entry)

(* [run_queue] drives the spawn/drain/reap loop until every queued item
   has produced exactly one final entry; crash retries re-enter the
   queue behind their backoff gate.

   [drain] is the graceful-shutdown latch (set by the SIGTERM/SIGINT
   handlers that {!run} installs): once set, no further item is
   dispatched, but every in-flight worker is seen through to its entry
   — reaped, classified, journalled — before the loop returns.  The
   watchdogs stay armed, so draining cannot hang on a wedged worker. *)
let run_queue cfg ~worker ~on_entry ~(drain_sig : int option ref)
    (queue : queued list) =
  let pending = ref queue in
  let running : running list ref = ref [] in
  let finished = ref [] in
  let n_final = ref 0 in
  let total = List.length queue in
  let finish idx entry =
    incr n_final;
    on_entry entry;
    finished := (idx, entry) :: !finished
  in
  while (!drain_sig = None && !n_final < total) || !running <> [] do
    (* 1. fill free slots with runnable queued items (none once draining) *)
    let now = Unix.gettimeofday () in
    let runnable, gated =
      List.partition (fun q -> q.not_before <= now) !pending
    in
    let free =
      if !drain_sig <> None then 0 else cfg.jobs - List.length !running
    in
    let rec take n = function
      | x :: rest when n > 0 ->
          let taken, left = take (n - 1) rest in
          (x :: taken, left)
      | rest -> ([], rest)
    in
    let to_spawn, still_queued = take free runnable in
    pending := still_queued @ gated;
    List.iter
      (fun q ->
        running := spawn cfg ~worker q.q_idx q.q_attempt q.q_item :: !running)
      to_spawn;
    (* 2. wait for worker output, a watchdog deadline or a backoff gate *)
    let fds =
      List.filter_map (fun r -> if r.eof then None else Some r.fd) !running
    in
    let wait =
      let earliest acc t =
        match acc with Some a -> Some (min a t) | None -> Some t
      in
      let next =
        List.fold_left
          (fun acc r ->
            match r.deadline with
            | Some d when not r.watchdog_killed -> earliest acc d
            | _ -> acc)
          None !running
      in
      let next =
        List.fold_left (fun acc q -> earliest acc q.not_before) next gated
      in
      match next with
      | Some t -> Float.max 0.001 (Float.min 0.05 (t -. Unix.gettimeofday ()))
      | None -> 0.05
    in
    (* a worker at EOF has left the select set but may not be reapable
       yet (fd closes before the zombie appears): poll fast instead of
       sleeping out the idle timeout *)
    let wait =
      if List.exists (fun r -> r.eof) !running then 0.001 else wait
    in
    (match Unix.select fds [] [] wait with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun r -> r.fd = fd) !running with
            | Some r -> drain r
            | None -> ())
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* 3. enforce watchdog deadlines *)
    let now = Unix.gettimeofday () in
    List.iter
      (fun r ->
        match r.deadline with
        | Some d when (not r.watchdog_killed) && now > d ->
            r.watchdog_killed <- true;
            (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ())
      !running;
    (* 4. reap exited workers *)
    let still = ref [] in
    List.iter
      (fun r ->
        match Unix.waitpid [ Unix.WNOHANG ] r.pid with
        | 0, _ -> still := r :: !still
        | _, status -> (
            drain r;
            Unix.close r.fd;
            match classify_exit cfg r status with
            | `Retry, _ ->
                (* exponential backoff before the retry, without
                   blocking the other workers *)
                let delay = cfg.backoff *. (2. ** float_of_int r.attempt) in
                pending :=
                  {
                    q_idx = r.idx;
                    q_item = r.item;
                    q_attempt = r.attempt + 1;
                    not_before = Unix.gettimeofday () +. delay;
                  }
                  :: !pending
            | `Done, entry -> finish r.idx entry)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            Unix.close r.fd;
            finish r.idx
              {
                Runner.item_id = r.item.Runner.id;
                status =
                  Runner.Err
                    {
                      Runner.cls = Runner.Internal;
                      msg = "worker vanished (ECHILD)";
                      line = None;
                    };
                time = Unix.gettimeofday () -. r.started;
                n_candidates = 0;
                retried = r.attempt > 0;
                result = None;
              })
      !running;
    running := !still
  done;
  !finished

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* [run ?config ?worker ?journal ?resume ?oracle items]:

   - [worker] overrides the per-item computation (tests inject crashing
     workers); the default is {!Runner.run_item} under the config's
     budget, with the heap cap folded into the budget so cooperative
     paths classify allocation blowups before the Gc alarm must;
   - [oracle]/[backend] select the checking oracle and its engine
     ({!Exec.Oracle.run}; defaults: {!Lkmm.oracle} on its batched
     engine);
   - [journal] appends each completed entry to a JSONL journal;
   - [resume] recycles entries from an existing journal and runs only
     the missing items (pass the same path as [journal] to extend it in
     place).

   SIGTERM/SIGINT during the run trigger a graceful drain: dispatching
   stops, in-flight workers are reaped and their entries journalled,
   the journal is flushed and closed, and the process exits with the
   conventional 128+signal code (143 for SIGTERM, 130 for SIGINT) —
   so an interrupted [--journal] run is always resumable with no item
   half-recorded.  The previous handlers are restored on a normal
   return, so library callers outside a run keep their own behavior. *)
let run ?(config = default) ?worker ?journal ?resume ?explainer ?backend
    ?(oracle = Lkmm.oracle) (items : Runner.item list) =
  let t0 = Unix.gettimeofday () in
  let config = { config with jobs = max 1 config.jobs } in
  let limits =
    match config.mem_limit_mb with
    | Some mb -> { config.limits with Exec.Budget.max_heap_mb = Some mb }
    | None -> config.limits
  in
  let config = { config with limits } in
  let worker =
    match worker with
    | Some w -> w
    | None ->
        fun it ->
          Runner.run_item ~limits ~lint:config.lint ?explainer ?backend ~oracle
            it
  in
  let recycled =
    match resume with
    | Some path -> fst (Journal.partition path items)
    | None -> []
  in
  let recycled_ids = Hashtbl.create 64 in
  List.iter
    (fun (e : Runner.entry) -> Hashtbl.replace recycled_ids e.Runner.item_id ())
    recycled;
  let jw = Option.map Journal.open_writer journal in
  let on_entry e = Option.iter (fun w -> Journal.write w e) jw in
  let queue =
    List.filteri
      (fun _ (i : Runner.item) -> not (Hashtbl.mem recycled_ids i.Runner.id))
      items
    |> List.mapi (fun i x -> (i, x))
    |> List.map (fun (i, x) ->
           { q_idx = i; q_item = x; q_attempt = 0; not_before = 0. })
  in
  (* graceful drain on SIGTERM/SIGINT: the handler only sets the latch;
     the run loop does the draining at a safe point *)
  let drain = ref None in
  let install s =
    try Some (Sys.signal s (Sys.Signal_handle (fun s -> drain := Some s)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_term = install Sys.sigterm and prev_int = install Sys.sigint in
  let restore s prev =
    match prev with Some b -> (try Sys.set_signal s b with _ -> ()) | None -> ()
  in
  let fresh =
    Obs.with_span "pool" (fun () ->
        run_queue config ~worker ~on_entry ~drain_sig:drain queue)
  in
  Option.iter Journal.close jw;
  (match !drain with
  | Some s ->
      (* every in-flight worker was reaped and journalled; exit with the
         conventional interrupted-by-signal code so callers and scripts
         can tell a drained run from a completed one.  (The latch holds
         OCaml's portable signal number, which is negative — map it back
         to the system convention by hand.) *)
      let sysnum = if s = Sys.sigint then 2 else 15 in
      Printf.eprintf
        "pool: %s received — drained %d finished item(s), journal %s; \
         exiting %d\n%!"
        (Exec.Check.signal_name s) (List.length fresh)
        (match journal with Some p -> "flushed to " ^ p | None -> "not kept")
        (128 + sysnum);
      Stdlib.exit (128 + sysnum)
  | None -> ());
  restore Sys.sigterm prev_term;
  restore Sys.sigint prev_int;
  (* reassemble in item order: recycled entries keep their item's slot *)
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (e : Runner.entry) -> Hashtbl.replace by_id e.Runner.item_id e)
    recycled;
  List.iter
    (fun ((_ : int), (e : Runner.entry)) ->
      Hashtbl.replace by_id e.Runner.item_id e)
    fresh;
  let entries =
    List.filter_map
      (fun (i : Runner.item) -> Hashtbl.find_opt by_id i.Runner.id)
      items
  in
  Runner.summarise ~wall:(Unix.gettimeofday () -. t0) entries
