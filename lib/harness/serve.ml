(* Checking-as-a-service: a long-running daemon on OCaml 5 domains.

   The batch tools ({!Pool}, herd_lk) pay per-invocation costs on
   every run: process startup, model construction, cold static-prefix
   caches.  The daemon pays them once — models are compiled eagerly at
   startup in the main domain (forcing every shared [lazy], which is
   not domain-safe to race on), workers are domains sharing them
   directly (no fork, no marshalling), and the per-domain static-prefix
   caches ({!Lkmm.Relations}'s DLS slot) stay warm across requests.

   Robustness is the point, not an afterthought; the moving parts:

   - {b Admission control.}  The request queue is bounded; a request
     arriving at the bound is rejected immediately with class
     [overloaded] — the daemon sheds load instead of accumulating it.

   - {b Deadline propagation.}  Every check carries an absolute
     deadline (client [timeout_ms] or the daemon default), armed into
     the worker's budget via {!Exec.Budget.start_at} — so time spent
     queued counts, and a slow request degrades to a structured
     [Unknown], never a stuck worker.

   - {b Supervision.}  Domains cannot be killed from outside, so the
     supervisor practises abandon-and-replace: each worker slot carries
     an epoch; a worker still busy past its job's deadline plus a grace
     period is abandoned (epoch bumped — its eventual completion is
     dropped on the mismatch and its loop exits) and a fresh domain
     takes the slot.  A worker whose job raises through the fault
     barrier dies and is replaced the same way.  Replacements are
     bounded; a daemon that exhausts them runs degraded rather than
     looping.

   - {b Retry and quarantine.}  A request in flight on a lost worker is
     retried once after an exponential backoff.  A request that costs
     two workers is poison: it is answered [quarantined], and any
     future request with the same fingerprint (cache key) is rejected
     at admission without touching a worker.

   - {b Verdict cache.}  Deterministic verdicts are cached
     content-addressed ({!Vcache}: digest of model identity and test
     source) and journalled through {!Journal}; a daemon killed with
     [kill -9] recovers every completed insertion on restart, torn
     tail dropped.

   Every failure mode maps to a response class ({!Proto.cls}); no
   request goes unanswered, and no failure escapes the taxonomy. *)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  socket : string;
  workers : int;
  queue_bound : int;
  limits : Exec.Budget.limits;
  default_timeout : float; (* seconds; request deadline when client gives none *)
  max_line : int; (* bytes; longer request lines are rejected *)
  wedge_grace : float; (* seconds past deadline before a worker is abandoned *)
  max_replacements : int;
  cache_journal : string option;
  fsync : bool;
  chaos_ops : bool; (* accept chaos_kill / chaos_wedge *)
  retries : int; (* retries after a worker loss *)
  backoff : float; (* seconds before the first retry, doubling *)
  backend : Exec.Check.backend;
      (* checking engine for every job: [Enum] is the scalar reference
         evaluation (no planes) *)
  flight_dir : string option;
      (* arm the crash flight recorder: periodic + per-job checkpoints
         of the obs ring land in <dir>/flight-<pid>.jsonl, so a kill -9,
         wedge or quarantine leaves a post-mortem *)
  flight_interval : float; (* seconds between opportunistic checkpoints *)
}

let default =
  {
    socket = "lkserve.sock";
    workers = 2;
    queue_bound = 64;
    limits = Exec.Budget.default;
    default_timeout = 10.;
    max_line = 1 lsl 20;
    wedge_grace = 2.0;
    max_replacements = 32;
    cache_journal = None;
    fsync = false;
    chaos_ops = false;
    retries = 1;
    backoff = 0.05;
    backend = Exec.Check.Batch;
    flight_dir = None;
    flight_interval = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Jobs and state                                                      *)
(* ------------------------------------------------------------------ *)

type chaos = No_chaos | Kill | Wedge of float

type job = {
  req_id : string;
  trace : string; (* distributed-trace id; the req_id unless the client
                     chose one — stable across retry and replacement *)
  t_admit : float; (* admission time on the obs clock, microseconds *)
  conn_id : int;
  test : string;
  oracle : Exec.Oracle.t;
  expected : Exec.Check.verdict option;
  deadline : float; (* absolute, Unix time *)
  vkey : string; (* content fingerprint — cache and quarantine key *)
  chaos : chaos;
  mutable attempts : int; (* worker losses suffered so far *)
}

type outcome = Done of Report.entry | Lost of string

type slot = {
  sid : int;
  mutable epoch : int;
  mutable busy : job option;
  mutable alive : bool; (* current-epoch occupant is running *)
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable pending : string; (* bytes read but not yet a full line *)
  seen : (string, unit) Hashtbl.t; (* request ids used on this conn *)
  mutable discarding : bool; (* inside an oversized line *)
}

type t = {
  cfg : config;
  models : (string, Model_table.t) Hashtbl.t; (* by name (built-ins) *)
  cat_models : (string, Model_table.t) Hashtbl.t; (* by contents digest *)
  cache : Vcache.t;
  mutex : Mutex.t; (* guards queue / slots / completed *)
  cond : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;
  slots : slot array;
  mutable completed : (job * outcome) list;
  mutable replacements : int;
  strikes : (string, int) Hashtbl.t; (* vkey -> worker losses *)
  mutable gated : (float * job) list; (* backoff: ready-at, job *)
  conns : (int, conn) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  served : int array; (* responses by Proto.cls *)
  mutable n_requests : int;
  started_at : float;
}

let cls_index : Proto.cls -> int = function
  | Proto.Ok_ -> 0
  | Proto.Fail -> 1
  | Proto.Unknown -> 2
  | Proto.Error -> 3
  | Proto.Overloaded -> 4
  | Proto.Quarantined -> 5

let locked p f =
  Mutex.lock p.mutex;
  match f () with
  | v ->
      Mutex.unlock p.mutex;
      v
  | exception e ->
      Mutex.unlock p.mutex;
      raise e

(* Wake the main select loop (self-pipe trick); the write end is
   non-blocking — a full pipe already guarantees a pending wake-up. *)
let wake p =
  try ignore (Unix.write p.wake_w (Bytes.of_string "w") 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Service-level distributions, observed unconditionally
   ({!Obs.Histogram.observe_always}): the [metrics] op must answer with
   real p50/p95/p99 on a daemon that never switched tracing on. *)
let h_latency = Obs.Histogram.make "serve.latency_us"
let h_queue_wait = Obs.Histogram.make "serve.queue_wait_us"

exception Chaos_killed

let gave_up_entry job reason =
  {
    Report.item_id = job.req_id;
    status = Report.Gave_up reason;
    time = 0.;
    n_candidates = 0;
    retried = job.attempts > 0;
    result = None;
  }

(* The per-job computation, inside the worker domain.  Exceptions
   escaping this function kill the worker (deliberately, for [Kill];
   accidentally, for anything {!Runner.run_item}'s barrier missed) —
   the supervisor replaces the domain and retries the job. *)
let run_job cfg job =
  match job.chaos with
  | Kill -> raise Chaos_killed
  | Wedge s ->
      (* A genuine wedge: hold the slot without ticking any budget.  If
         the supervisor abandons us meanwhile, the completion below is
         dropped on the epoch mismatch. *)
      Unix.sleepf s;
      gave_up_entry job (Exec.Budget.Timed_out s)
  | No_chaos ->
      if Unix.gettimeofday () >= job.deadline then
        (* Deadline spent in the queue (or a zero-deadline request):
           answer without running. *)
        gave_up_entry job
          (Exec.Budget.Timed_out
             (Option.value ~default:0. cfg.limits.Exec.Budget.timeout))
      else
        let entry =
          Runner.run_item ~limits:cfg.limits ~deadline:job.deadline
            ~backend:cfg.backend ~oracle:job.oracle
            { Runner.id = job.req_id; source = `Text job.test;
              expected = job.expected }
        in
        { entry with Report.retried = job.attempts > 0 }

let rec worker_loop p slot epoch =
  Mutex.lock p.mutex;
  let rec next () =
    if slot.epoch <> epoch then None (* abandoned: let the slot go *)
    else if not (Queue.is_empty p.queue) then Some (Queue.pop p.queue)
    else if p.stopping then None
    else begin
      Condition.wait p.cond p.mutex;
      next ()
    end
  in
  match next () with
  | None ->
      Mutex.unlock p.mutex
  | Some job -> (
      slot.busy <- Some job;
      Mutex.unlock p.mutex;
      (* Queue wait (cumulative since admission) and the check itself,
         both on the request's trace.  The forced checkpoint means a
         worker lost to this job — killed, wedged, OOMed — has already
         left the victim's trace id on disk. *)
      let t_dequeue = Obs.now_us () in
      Obs.Histogram.observe_always h_queue_wait (t_dequeue -. job.t_admit);
      Obs.record ~item:job.trace ~start_us:job.t_admit
        ~dur_us:(t_dequeue -. job.t_admit) "serve.queue";
      let run () =
        Obs.with_span ~item:job.trace "serve.check" (fun () ->
            if Obs.flight_active () then
              Obs.flight_checkpoint ~reason:"job-start" ();
            run_job p.cfg job)
      in
      match run () with
      | entry ->
          let mine =
            locked p (fun () ->
                if slot.epoch = epoch then begin
                  slot.busy <- None;
                  p.completed <- (job, Done entry) :: p.completed;
                  true
                end
                else false)
          in
          wake p;
          if mine then worker_loop p slot epoch
      | exception e ->
          (* This domain is done for; report the loss so the supervisor
             replaces the slot and deals with the job. *)
          let why =
            match e with
            | Chaos_killed -> "worker killed (chaos)"
            | e -> "worker died: " ^ Printexc.to_string e
          in
          locked p (fun () ->
              if slot.epoch = epoch then begin
                slot.busy <- None;
                slot.alive <- false;
                p.completed <- (job, Lost why) :: p.completed
              end);
          wake p)

let spawn_worker p slot =
  slot.epoch <- slot.epoch + 1;
  slot.alive <- true;
  slot.busy <- None;
  let epoch = slot.epoch in
  ignore (Domain.spawn (fun () -> worker_loop p slot epoch))

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let close_conn p c =
  Hashtbl.remove p.conns c.cid;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Write one response line; a client that vanished mid-request costs an
   EPIPE (SIGPIPE is ignored), never the daemon. *)
let respond p conn_id ~cls line =
  p.served.(cls_index cls) <- p.served.(cls_index cls) + 1;
  match Hashtbl.find_opt p.conns conn_id with
  | None -> () (* client disconnected: the answer has no address *)
  | Some c -> (
      let s = line ^ "\n" in
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      try
        let sent = ref 0 in
        while !sent < n do
          sent := !sent + Unix.write c.fd b !sent (n - !sent)
        done
      with Unix.Unix_error _ -> close_conn p c)

let verdict_of_entry (e : Report.entry) =
  match e.Report.status with
  | Report.Pass v -> Some v
  | Report.Fail { got; _ } -> Some got
  | _ -> None

let deterministic e =
  match verdict_of_entry e with
  | Some Exec.Check.Allow | Some Exec.Check.Forbid -> true
  | _ -> false

(* A cache hit stores the *verdict*; pass/fail is relative to the
   asking request's expectation, so rebuild the status against it. *)
let entry_of_hit (cached : Report.entry) ~req_id ~expected =
  match verdict_of_entry cached with
  | Some v ->
      let status =
        match expected with
        | None -> Report.Pass v
        | Some exp when exp = v -> Report.Pass v
        | Some exp -> Report.Fail { expected = exp; got = v }
      in
      { cached with Report.item_id = req_id; status; result = None }
  | None -> { cached with Report.item_id = req_id } (* not reachable: only
      deterministic entries are stored *)

(* Close out a job's request-lifecycle telemetry as its answer leaves:
   the end-to-end latency distribution and one admission→reply span on
   the request's trace. *)
let finish_job_telemetry job =
  let now = Obs.now_us () in
  Obs.Histogram.observe_always h_latency (now -. job.t_admit);
  Obs.record ~item:job.trace ~start_us:job.t_admit
    ~dur_us:(now -. job.t_admit) "serve.request"

let respond_entry p job ?(cache = false) entry =
  if (not cache) && deterministic entry then Vcache.store p.cache job.vkey entry;
  finish_job_telemetry job;
  respond p job.conn_id
    ~cls:(Proto.cls_of_entry entry)
    (Proto.response_line ~id:job.req_id
       ~cls:(Proto.cls_of_entry entry)
       ~trace:job.trace ~cache ~entry ())

(* ------------------------------------------------------------------ *)
(* Supervision: losses, retries, quarantine, replacement               *)
(* ------------------------------------------------------------------ *)

let quarantined p vkey =
  match Hashtbl.find_opt p.strikes vkey with Some s -> s >= 2 | None -> false

let note_loss p now job why =
  job.attempts <- job.attempts + 1;
  let s = 1 + Option.value ~default:0 (Hashtbl.find_opt p.strikes job.vkey) in
  Hashtbl.replace p.strikes job.vkey s;
  if s >= 2 then begin
    Obs.event ~item:job.trace "serve.quarantine";
    finish_job_telemetry job;
    respond p job.conn_id ~cls:Proto.Quarantined
      (Proto.response_line ~id:job.req_id ~cls:Proto.Quarantined
         ~trace:job.trace
         ~msg:(why ^ "; fingerprint quarantined after " ^ string_of_int s
               ^ " worker losses")
         ())
  end
  else if job.attempts <= p.cfg.retries then begin
    (* Same job record, same trace id: the retry is one more hop on the
       request's trace, not a new request. *)
    Obs.event ~item:job.trace "serve.retry";
    let delay = p.cfg.backoff *. (2. ** float_of_int (job.attempts - 1)) in
    p.gated <- (now +. delay, job) :: p.gated
  end
  else begin
    Obs.event ~item:job.trace "serve.drop";
    finish_job_telemetry job;
    respond p job.conn_id ~cls:Proto.Error
      (Proto.response_line ~id:job.req_id ~cls:Proto.Error ~trace:job.trace
         ~msg:(why ^ "; no retries left") ())
  end

(* One supervisor pass: abandon wedged workers, replace dead slots,
   promote backoff-gated retries whose time has come. *)
let supervise p now =
  let losses, respawn =
    locked p (fun () ->
        let losses = ref [] and respawn = ref [] in
        Array.iter
          (fun slot ->
            (match slot.busy with
            | Some job when now > job.deadline +. p.cfg.wedge_grace ->
                (* Busy past deadline + grace: the budget should have
                   tripped long ago — the worker is wedged.  Abandon the
                   domain (epoch bump drops its eventual completion). *)
                slot.epoch <- slot.epoch + 1;
                slot.busy <- None;
                slot.alive <- false;
                losses := (job, "worker wedged past deadline") :: !losses
            | _ -> ());
            if (not slot.alive) && p.replacements < p.cfg.max_replacements
               && not p.stopping
            then begin
              p.replacements <- p.replacements + 1;
              respawn := slot :: !respawn
            end)
          p.slots;
        (* Promote gated retries (Condition has no timed wait; the main
           loop's tick is the timer). *)
        let ready, waiting =
          List.partition (fun (at, _) -> at <= now) p.gated
        in
        p.gated <- waiting;
        List.iter (fun (_, j) -> Queue.push j p.queue) ready;
        if ready <> [] then Condition.broadcast p.cond;
        (!losses, !respawn))
  in
  List.iter (fun (job, why) -> note_loss p now job why) losses;
  List.iter
    (fun slot -> locked p (fun () -> spawn_worker p slot))
    respawn

let drain_completions p now =
  let cs = locked p (fun () ->
      let cs = List.rev p.completed in
      p.completed <- [];
      cs)
  in
  List.iter
    (fun (job, outcome) ->
      match outcome with
      | Done entry -> respond_entry p job entry
      | Lost why -> note_loss p now job why)
    cs

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let resolve_model p name =
  match Hashtbl.find_opt p.models (String.lowercase_ascii name) with
  | Some m -> Ok m
  | None ->
      if Filename.check_suffix name ".cat" && Sys.file_exists name then begin
        match Runner.read_file name with
        | exception Sys_error e -> Error ("cannot read model: " ^ e)
        | src -> (
            let digest = Digest.to_hex (Digest.string src) in
            match Hashtbl.find_opt p.cat_models digest with
            | Some m -> Ok m
            | None -> (
                match Cat.parse src with
                | exception e ->
                    Error ("cannot parse model: " ^ Printexc.to_string e)
                | parsed ->
                    let m =
                      Model_table.of_cat ~key:("cat:" ^ digest) name parsed
                    in
                    Hashtbl.replace p.cat_models digest m;
                    Ok m))
      end
      else Error ("unknown model: " ^ name)

(* One reading of the service's gauges, which the [stats] and [metrics]
   ops both render. *)
type gauges = {
  live : int;
  busy_slots : int;
  queue_depth : int;
  gated_retries : int;
  quarantined_keys : int;
  served_json : string; (* the served-by-class JSON members *)
}

let gauges p =
  let queue_depth, busy_slots, gated_retries =
    locked p (fun () ->
        ( Queue.length p.queue,
          Array.fold_left
            (fun n s -> if s.busy <> None then n + 1 else n)
            0 p.slots,
          List.length p.gated ))
  in
  {
    live = Array.fold_left (fun n s -> if s.alive then n + 1 else n) 0 p.slots;
    busy_slots;
    queue_depth;
    gated_retries;
    quarantined_keys =
      Hashtbl.fold (fun _ s n -> if s >= 2 then n + 1 else n) p.strikes 0;
    served_json =
      String.concat ", "
        (List.map
           (fun cls ->
             Printf.sprintf "\"%s\": %d" (Proto.cls_name cls)
               p.served.(cls_index cls))
           [ Proto.Ok_; Fail; Unknown; Error; Overloaded; Quarantined ]);
  }

let stats_extra p now =
  let g = gauges p in
  [
    ("workers", string_of_int g.live);
    ("busy", string_of_int g.busy_slots);
    ("queued", string_of_int g.queue_depth);
    ("gated", string_of_int g.gated_retries);
    ("requests", string_of_int p.n_requests);
    ("replacements", string_of_int p.replacements);
    ("quarantined_keys", string_of_int g.quarantined_keys);
    ("cache_size", string_of_int (Vcache.size p.cache));
    ("cache_hits", string_of_int (Vcache.hits p.cache));
    ("cache_misses", string_of_int (Vcache.misses p.cache));
    ("uptime", Printf.sprintf "%.3f" (now -. p.started_at));
    ("served", "{" ^ g.served_json ^ "}");
  ]

(* The [metrics] payload: one self-contained lkmetrics-1 object —
   counters, gauges and latency/queue-wait percentiles — the same shape
   {!Campaign}'s periodic snapshots journal, so one schema
   (ci/metrics.schema.json) validates both surfaces. *)
let metrics_json p now =
  let g = gauges p in
  Printf.sprintf
    "{\"schema\": \"lkmetrics-1\", \"ts_us\": %.1f, \"uptime_s\": %.3f, \
     \"requests\": %d, \"queue_depth\": %d, \"gated\": %d, \
     \"workers_live\": %d, \"workers_busy\": %d, \"replacements\": %d, \
     \"quarantined_keys\": %d, \"backend\": \"%s\", \"cache\": {\"size\": \
     %d, \"hits\": %d, \"misses\": %d}, \"served\": {%s}, \"latency_us\": \
     %s, \"queue_wait_us\": %s}"
    (Obs.now_us ())
    (now -. p.started_at)
    p.n_requests g.queue_depth g.gated_retries g.live g.busy_slots
    p.replacements g.quarantined_keys
    (Exec.Check.backend_to_string p.cfg.backend)
    (Vcache.size p.cache) (Vcache.hits p.cache) (Vcache.misses p.cache)
    g.served_json
    (Obs.hist_metrics_json (Obs.hist_snapshot h_latency))
    (Obs.hist_metrics_json (Obs.hist_snapshot h_queue_wait))

let enqueue p job =
  locked p (fun () ->
      Queue.push job p.queue;
      Condition.signal p.cond)

(* Handle one complete request line from [conn]. *)
let handle_line p conn line ~request_shutdown =
  p.n_requests <- p.n_requests + 1;
  let now = Unix.gettimeofday () in
  let err ?(id = "") msg =
    respond p conn.cid ~cls:Proto.Error
      (Proto.response_line ~id ~cls:Proto.Error ~msg ())
  in
  match Proto.parse_request line with
  | Error (msg, id) -> err ?id msg
  | Ok { req_id; trace = rtrace; op } -> (
      if Hashtbl.mem conn.seen req_id then
        err ~id:req_id ("duplicate request id: " ^ req_id)
      else begin
        Hashtbl.replace conn.seen req_id ();
        (* Every job-producing request carries a trace id — the
           client's, or the request id itself.  Control-plane answers
           echo the trace only when the client sent one. *)
        let trace = Option.value ~default:req_id rtrace in
        let t_admit = Obs.now_us () in
        let ok ?extra ?msg () =
          respond p conn.cid ~cls:Proto.Ok_
            (Proto.response_line ~id:req_id ~cls:Proto.Ok_ ?trace:rtrace ?msg
               ?extra ())
        in
        let overloaded msg =
          Obs.event ~item:trace "serve.overloaded";
          respond p conn.cid ~cls:Proto.Overloaded
            (Proto.response_line ~id:req_id ~cls:Proto.Overloaded ~trace ~msg
               ())
        in
        let chaos_gate k =
          if p.cfg.chaos_ops then k ()
          else err ~id:req_id "chaos ops disabled (start with --chaos-ops)"
        in
        let inject chaos =
          (* Chaos ops are jobs too: they queue, occupy a worker, and
             their fingerprint participates in quarantine. *)
          chaos_gate (fun () ->
              if p.stopping then overloaded "shutting down"
              else
                let vkey =
                  Vcache.key ~model_key:"chaos" ~source:(line ^ req_id)
                in
                if quarantined p vkey then
                  respond p conn.cid ~cls:Proto.Quarantined
                    (Proto.response_line ~id:req_id ~cls:Proto.Quarantined
                       ~trace ~msg:"fingerprint quarantined" ())
                else begin
                  Obs.event ~item:trace "serve.admit";
                  enqueue p
                    {
                      req_id;
                      trace;
                      t_admit;
                      conn_id = conn.cid;
                      test = "";
                      oracle = Lkmm.oracle;
                      expected = None;
                      deadline = now +. p.cfg.default_timeout;
                      vkey;
                      chaos;
                      attempts = 0;
                    }
                end)
        in
        match op with
        | Proto.Ping -> ok ~msg:"pong" ()
        | Proto.Stats -> ok ~extra:(stats_extra p now) ()
        | Proto.Metrics -> ok ~extra:[ ("metrics", metrics_json p now) ] ()
        | Proto.Shutdown ->
            ok ~msg:"draining" ();
            request_shutdown ()
        | Proto.Chaos_kill -> inject Kill
        | Proto.Chaos_wedge s -> inject (Wedge s)
        | Proto.Check c -> (
            match resolve_model p c.model with
            | Error msg -> err ~id:req_id msg
            | Ok (m : Model_table.t) -> (
                let vkey = Vcache.key ~model_key:m.key ~source:c.test in
                if quarantined p vkey then
                  respond p conn.cid ~cls:Proto.Quarantined
                    (Proto.response_line ~id:req_id ~cls:Proto.Quarantined
                       ~trace
                       ~msg:"fingerprint quarantined (killed two workers)" ())
                else
                  match Vcache.find p.cache vkey with
                  | Some cached ->
                      let entry =
                        entry_of_hit cached ~req_id ~expected:c.expected
                      in
                      Obs.Histogram.observe_always h_latency
                        (Obs.now_us () -. t_admit);
                      Obs.record ~item:trace ~start_us:t_admit
                        ~dur_us:(Obs.now_us () -. t_admit) "serve.request";
                      respond p conn.cid ~cls:(Proto.cls_of_entry entry)
                        (Proto.response_line ~id:req_id
                           ~cls:(Proto.cls_of_entry entry)
                           ~trace ~cache:true ~entry ())
                  | None ->
                      if p.stopping then overloaded "shutting down"
                      else if
                        locked p (fun () -> Queue.length p.queue)
                        >= p.cfg.queue_bound
                      then overloaded "queue full"
                      else begin
                        let timeout =
                          match c.timeout_ms with
                          | Some ms -> float_of_int ms /. 1000.
                          | None -> p.cfg.default_timeout
                        in
                        Obs.event ~item:trace "serve.admit";
                        enqueue p
                          {
                            req_id;
                            trace;
                            t_admit;
                            conn_id = conn.cid;
                            test = c.test;
                            oracle = m.oracle;
                            expected = c.expected;
                            deadline = now +. timeout;
                            vkey;
                            chaos = No_chaos;
                            attempts = 0;
                          }
                      end))
      end)

(* ------------------------------------------------------------------ *)
(* Connection buffering                                                *)
(* ------------------------------------------------------------------ *)

(* Feed newly read bytes through the line splitter, honouring the line
   bound: an overlong line is answered with one [error] and discarded
   through its terminating newline — the connection survives. *)
let feed p conn data ~request_shutdown =
  let data = conn.pending ^ data in
  conn.pending <- "";
  let n = String.length data in
  let pos = ref 0 in
  let continue = ref true in
  while !continue && !pos < n do
    match String.index_from_opt data !pos '\n' with
    | Some i ->
        let line = String.sub data !pos (i - !pos) in
        if conn.discarding then conn.discarding <- false
        else if String.length line > p.cfg.max_line then
          respond p conn.cid ~cls:Proto.Error
            (Proto.response_line ~id:"" ~cls:Proto.Error
               ~msg:
                 (Printf.sprintf "request line over %d bytes" p.cfg.max_line)
               ())
        else if String.trim line <> "" then
          handle_line p conn line ~request_shutdown;
        pos := i + 1
    | None ->
        let rest = String.sub data !pos (n - !pos) in
        if conn.discarding then () (* still inside the oversized line *)
        else if String.length rest > p.cfg.max_line then begin
          respond p conn.cid ~cls:Proto.Error
            (Proto.response_line ~id:"" ~cls:Proto.Error
               ~msg:
                 (Printf.sprintf "request line over %d bytes" p.cfg.max_line)
               ());
          conn.discarding <- true
        end
        else conn.pending <- rest;
        continue := false
  done

(* ------------------------------------------------------------------ *)
(* Startup and main loop                                               *)
(* ------------------------------------------------------------------ *)

(* A trivial one-thread test: running it through every built-in model at
   startup forces shared lazies and warms parse tables in the main
   domain, before any worker domain can race on them. *)
let warmup_test =
  "C warmup\n\n{ }\n\nP0(int *x) {\n  int r0 = READ_ONCE(*x);\n}\n\n\
   exists (0:r0=1)\n"

let warmup p =
  ignore (Lazy.force Cat.lk);
  let item =
    { Runner.id = "warmup"; source = `Text warmup_test; expected = None }
  in
  Hashtbl.iter
    (fun name (m : Model_table.t) ->
      if name = m.key then
        ignore
          (Runner.run_item
             ~limits:(Exec.Budget.limits ~timeout:10. ())
             ~backend:p.cfg.backend ~oracle:m.oracle item))
    p.models

let create cfg =
  let models = Hashtbl.create 16 in
  List.iter
    (fun (n, m) -> Hashtbl.replace models n m)
    (Model_table.builtins ());
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  {
    cfg;
    models;
    cat_models = Hashtbl.create 8;
    cache = Vcache.create ?journal:cfg.cache_journal ~fsync:cfg.fsync ();
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    stopping = false;
    slots =
      Array.init (max 1 cfg.workers) (fun sid ->
          { sid; epoch = 0; busy = None; alive = false });
    completed = [];
    replacements = 0;
    strikes = Hashtbl.create 16;
    gated = [];
    conns = Hashtbl.create 16;
    wake_r;
    wake_w;
    served = Array.make 6 0;
    n_requests = 0;
    started_at = Unix.gettimeofday ();
  }

let run ?(config = default) () =
  (* The collector is NOT force-enabled here: tracing is the caller's
     choice (lkserve honours the shared --trace/--metrics flags).  An
     armed flight recorder needs the span ring, so it implies it. *)
  (match config.flight_dir with
  | Some dir ->
      if not (Obs.enabled ()) then Obs.set_enabled true;
      (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
      Obs.flight_start
        ~interval_us:(config.flight_interval *. 1e6)
        (Filename.concat dir
           (Printf.sprintf "flight-%d.jsonl" (Unix.getpid ())))
  | None -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let p = create config in
  warmup p;
  (* Bind the socket (replacing a stale file from a previous crash). *)
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket);
  Unix.listen listen_fd 64;
  locked p (fun () -> Array.iter (fun s -> spawn_worker p s) p.slots);
  let stop = ref false in
  let request_shutdown () = stop := true in
  let install s = Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true)) in
  install Sys.sigterm;
  install Sys.sigint;
  Printf.eprintf "lkserve: listening on %s (%d workers, queue %d%s)\n%!"
    config.socket (Array.length p.slots) config.queue_bound
    (if config.chaos_ops then ", chaos ops ON" else "");
  let next_cid = ref 0 in
  let buf = Bytes.create 65536 in
  let draining = ref false in
  let drain_deadline = ref infinity in
  let running = ref true in
  while !running do
    let fds =
      listen_fd :: p.wake_r
      :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) p.conns []
    in
    let readable, _, _ =
      match Unix.select fds [] [] 0.05 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now = Unix.gettimeofday () in
    (* Accept new clients (not while draining). *)
    if List.mem listen_fd readable && not !draining then begin
      match Unix.accept listen_fd with
      | fd, _ ->
          incr next_cid;
          let cid = !next_cid in
          Hashtbl.replace p.conns cid
            { fd; cid; pending = ""; seen = Hashtbl.create 16;
              discarding = false }
      | exception Unix.Unix_error _ -> ()
    end;
    (* Drain wake-ups. *)
    if List.mem p.wake_r readable then
      (try ignore (Unix.read p.wake_r buf 0 (Bytes.length buf))
       with Unix.Unix_error _ -> ());
    (* Client input. *)
    Hashtbl.fold (fun _ c acc -> c :: acc) p.conns []
    |> List.iter (fun c ->
           if List.mem c.fd readable then
             match Unix.read c.fd buf 0 (Bytes.length buf) with
             | 0 -> close_conn p c (* EOF: mid-request disconnects land here *)
             | n ->
                 feed p c (Bytes.sub_string buf 0 n) ~request_shutdown
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
             | exception Unix.Unix_error _ -> close_conn p c);
    (* Worker completions, then supervision. *)
    drain_completions p now;
    supervise p now;
    (* Shutdown: reject the queue, finish in-flight work, then leave. *)
    if !stop && not !draining then begin
      draining := true;
      let orphans =
        locked p (fun () ->
            p.stopping <- true;
            Condition.broadcast p.cond;
            let q = Queue.fold (fun acc j -> j :: acc) [] p.queue in
            Queue.clear p.queue;
            List.rev q)
      in
      List.iter
        (fun j ->
          respond p j.conn_id ~cls:Proto.Overloaded
            (Proto.response_line ~id:j.req_id ~cls:Proto.Overloaded
               ~trace:j.trace ~msg:"shutting down" ()))
        orphans;
      let gated = p.gated in
      p.gated <- [];
      List.iter
        (fun (_, j) ->
          respond p j.conn_id ~cls:Proto.Overloaded
            (Proto.response_line ~id:j.req_id ~cls:Proto.Overloaded
               ~trace:j.trace ~msg:"shutting down" ()))
        gated;
      (* Give in-flight work until its own deadline plus grace. *)
      drain_deadline :=
        locked p (fun () ->
            Array.fold_left
              (fun acc s ->
                match s.busy with
                | Some j -> Float.max acc (j.deadline +. config.wedge_grace)
                | None -> acc)
              (now +. 0.2) p.slots)
    end;
    if !draining then begin
      let idle =
        locked p (fun () ->
            p.completed = []
            && Array.for_all (fun s -> s.busy = None) p.slots)
      in
      if idle || now > !drain_deadline then running := false
    end
  done;
  drain_completions p (Unix.gettimeofday ());
  if Obs.flight_active () then Obs.flight_stop ();
  Vcache.close p.cache;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    p.conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  Printf.eprintf
    "lkserve: drained — %d requests served (%d ok, %d fail, %d unknown, %d \
     error, %d overloaded, %d quarantined), %d replacements\n%!"
    p.n_requests p.served.(0) p.served.(1) p.served.(2) p.served.(3)
    p.served.(4) p.served.(5) p.replacements;
  0

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = { ic : in_channel; oc : out_channel; mutable ctr : int }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    {
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      ctr = 0;
    }

  let fresh_id t =
    t.ctr <- t.ctr + 1;
    Printf.sprintf "c%d" t.ctr

  let send t line =
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc

  let recv t =
    match input_line t.ic with
    | line -> Proto.parse_response line
    | exception End_of_file -> Error "connection closed by daemon"

  let request t line =
    send t line;
    recv t

  let check t ?id ?trace ?model ?timeout_ms ?expected test =
    let id = match id with Some i -> i | None -> fresh_id t in
    request t (Proto.check_line ~id ?trace ?model ?timeout_ms ?expected test)

  let ping t = request t (Proto.simple_line ~id:(fresh_id t) "ping")
  let stats t = request t (Proto.simple_line ~id:(fresh_id t) "stats")
  let metrics t = request t (Proto.simple_line ~id:(fresh_id t) "metrics")
  let shutdown t = request t (Proto.simple_line ~id:(fresh_id t) "shutdown")

  let chaos_kill ?trace t =
    request t (Proto.simple_line ~id:(fresh_id t) ?trace "chaos_kill")

  let chaos_wedge ?trace t seconds =
    request t (Proto.chaos_wedge_line ~id:(fresh_id t) ?trace seconds)

  let close t =
    close_out_noerr t.oc;
    close_in_noerr t.ic
end
