(* Process-isolated parallel checking (robustness layer).

   {!Runner.run_item}'s fault barrier is cooperative: it catches
   exceptions and budget trips, but a segfault, a stack overflow in an
   un-instrumented path, a runaway allocation or a genuine hang is
   beyond it.  The pool checks items on {!Supervisor}'s reusable
   worker processes and keeps only its policy here: the deadline
   derived from the budget, the worker's heap cap, the journal and
   resume, the SIGTERM drain, and the mapping of every returned or lost
   item to a {!Report.entry}.  The supervisor retries a lost item once;
   the pool sees only its second loss. *)

type config = {
  jobs : int; (* concurrent workers (>= 1) *)
  limits : Exec.Budget.limits; (* per-item cooperative budget *)
  mem_limit_mb : int option; (* hard heap cap enforced in the worker *)
  flight_dir : string option; (* crash flight recorder in every worker *)
}

let default =
  {
    jobs = 2;
    limits = Exec.Budget.default;
    mem_limit_mb = None;
    flight_dir = None;
  }

(* The worker's Gc alarm exits with this code when the heap passes the
   cap; the parent maps it back to [Heap_exceeded]. *)
let exit_mem_cap = 97

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
   stops, the items the supervisor holds (retries included) finish and
   are journalled, the journal is flushed and closed, and the process
   exits with the conventional 128+signal code (143 for SIGTERM, 130
   for SIGINT) — so an interrupted [--journal] run is always resumable
   with no item half-recorded.  The previous handlers are restored on a
   normal return, so library callers outside a run keep their own
   behavior. *)
let run ?(config = default) ?worker ?journal ?resume ?explainer ?backend
    ?(oracle = Lkmm.oracle) (items : Runner.item list) =
  let t0 = Unix.gettimeofday () in
  let limits =
    match config.mem_limit_mb with
    | Some mb -> { config.limits with Exec.Budget.max_heap_mb = Some mb }
    | None -> config.limits
  in
  let worker =
    match worker with
    | Some w -> w
    | None -> fun it -> Runner.run_item ~limits ?explainer ?backend ~oracle it
  in
  (* the hard deadline: the cooperative timeout plus slack, so only a
     worker that never ticks its budget meets it *)
  let deadline =
    Option.map (fun t -> (2. *. t) +. 1.) limits.Exec.Budget.timeout
  in
  (* Runs in a worker.  The Gc alarm is checked at the end of every
     major collection, so it catches runaway allocation even in code
     that never ticks a budget; a worker arms it at its first item and
     runs a full major collection before each item, so a trip is
     charged to the item that allocated, not to its predecessor's
     garbage.  With the flight recorder armed, the item's id is on disk
     before any work happens.  An entry returned by a retry is marked
     [retried]. *)
  let alarm = ref false in
  let job ~attempt (item : Runner.item) =
    Option.iter
      (fun mb ->
        if not !alarm then begin
          alarm := true;
          ignore
            (Gc.create_alarm (fun () ->
                 if Exec.Budget.heap_mb () > mb then Unix._exit exit_mem_cap))
        end;
        Gc.full_major ())
      config.mem_limit_mb;
    let e =
      if Obs.flight_active () then
        Obs.with_span ~item:item.Runner.id "pool.item" (fun () ->
            Obs.flight_checkpoint ~reason:"item-start" ();
            worker item)
      else worker item
    in
    { e with Runner.retried = attempt > 1 }
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
  let fresh = ref [] in
  (* An item's end becomes its entry: the returned one, or one
     classified by the second of its two losses. *)
  let reaped ((item : Runner.item), secs, exit) =
    let finish (e : Runner.entry) =
      Option.iter (fun w -> Journal.write w e) jw;
      fresh := e :: !fresh
    in
    let final status =
      finish
        {
          Runner.item_id = item.Runner.id;
          status;
          time = secs;
          n_candidates = 0;
          retried = true;
          result = None;
        }
    in
    let err msg =
      Runner.Err { Runner.cls = Runner.Internal; msg; line = None }
    in
    match (exit : Runner.entry Supervisor.exit) with
    | Returned e -> finish e
    | Lost (_, Exited n) when n = exit_mem_cap ->
        let mb = Option.value ~default:0 config.mem_limit_mb in
        final (Runner.Gave_up (Exec.Budget.Heap_exceeded mb))
    | Lost (_, Exited n) ->
        final (err (Printf.sprintf "worker exited with code %d" n))
    | Lost (_, Deadline) ->
        final
          (Runner.Gave_up
             (Exec.Budget.Timed_out (Option.value ~default:0. deadline)))
    | Lost (_, Vanished) -> final (err "worker vanished (ECHILD)")
    | Lost (_, Signaled s) ->
        final
          (Runner.Err
             {
               Runner.cls = Runner.Crash s;
               msg = "worker killed by " ^ Exec.Check.signal_name s;
               line = None;
             })
  in
  (* graceful drain on SIGTERM/SIGINT: the handler only sets the latch;
     the loop below stops dispatching and sees its workers through *)
  let drain = ref None in
  let install s =
    try Some (Sys.signal s (Sys.Signal_handle (fun s -> drain := Some s)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_term = install Sys.sigterm and prev_int = install Sys.sigint in
  let restore s prev =
    match prev with Some b -> (try Sys.set_signal s b with _ -> ()) | None -> ()
  in
  let sup = Supervisor.create ?flight:config.flight_dir ~jobs:config.jobs job in
  let rec loop queue =
    if (!drain = None && queue <> []) || Supervisor.running sup > 0 then begin
      let rec fill = function
        | item :: rest when !drain = None && Supervisor.free sup > 0 ->
            Supervisor.submit sup ?deadline item;
            fill rest
        | rest -> rest
      in
      let queue = fill queue in
      List.iter reaped (Supervisor.wait sup ());
      loop queue
    end
  in
  Obs.with_span "pool" (fun () ->
      loop
        (List.filter
           (fun (item : Runner.item) ->
             not (Hashtbl.mem recycled_ids item.Runner.id))
           items));
  Supervisor.close sup;
  Option.iter Journal.close jw;
  (match !drain with
  | Some s ->
      (* every item the supervisor held was journalled; exit with the
         conventional interrupted-by-signal code so callers and scripts
         can tell a drained run from a completed one.  (The latch holds
         OCaml's portable signal number, which is negative — map it back
         to the system convention by hand.) *)
      let sysnum = if s = Sys.sigint then 2 else 15 in
      Printf.eprintf
        "pool: %s received — drained %d finished item(s), journal %s; \
         exiting %d\n%!"
        (Exec.Check.signal_name s) (List.length !fresh)
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
    (recycled @ !fresh);
  let entries =
    List.filter_map
      (fun (i : Runner.item) -> Hashtbl.find_opt by_id i.Runner.id)
      items
  in
  Runner.summarise ~wall:(Unix.gettimeofday () -. t0) entries
