(* Checking-as-a-service: a long-running daemon on forked workers.

   The batch tools ({!Pool}, herd_lk) pay per-invocation costs on
   every run: process startup, model construction, cold static-prefix
   caches.  The daemon pays them once — models are compiled eagerly at
   startup, before {!Supervisor} forks the workers, so every worker
   inherits them warm, and a worker serves request after request with
   its static-prefix caches ({!Lkmm.Relations}) kept warm.  A request
   crosses to a worker as plain data (test source, model name,
   deadline); its entry comes back over the worker's pipe.  The daemon
   itself is one thread: one select loop over the socket, the clients
   and the workers' result pipes.

   Robustness is the point, not an afterthought; the moving parts:

   - {b Admission control.}  The request queue is bounded; a request
     arriving at the bound is rejected immediately with class
     [overloaded] — the daemon sheds load instead of accumulating it.

   - {b Deadline propagation.}  Every check carries an absolute
     deadline (client [timeout_ms] or the daemon default), armed into
     the worker's budget via {!Exec.Budget.start_at} — so time spent
     queued counts, and a slow request degrades to a structured
     [Unknown], never a stuck worker.

   - {b Supervision.}  A worker is a process, so it can be stopped: the
     supervisor SIGKILLs a worker still busy past its job's deadline
     plus a grace period, and replaces any worker that dies — killed,
     wedged, crashed or out of memory.

   - {b Quarantine.}  The supervisor runs a request whose worker is
     lost once more; the daemon only counts the cost.  Each fingerprint
     (cache key) collects strikes: one for an answer that needed the
     retry, two for a request lost twice, which is answered
     [quarantined].  Two strikes quarantine the fingerprint: any future
     request with it is rejected at admission without touching a
     worker.

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
  wedge_grace : float; (* seconds past deadline before a worker is killed *)
  cache_journal : string option;
  fsync : bool;
  chaos_ops : bool; (* accept chaos_kill / chaos_wedge *)
  backend : Exec.Check.backend; (* checking engine for every job *)
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
    cache_journal = None;
    fsync = false;
    chaos_ops = false;
    backend = Exec.Oracle.default_backend;
    flight_dir = None;
    flight_interval = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Jobs and state                                                      *)
(* ------------------------------------------------------------------ *)

type chaos = No_chaos | Kill | Wedge of float

(* A job crosses to a worker as plain data: the model travels by name,
   and a .cat model with its source too, since the worker may have been
   forked before the daemon first compiled it. *)
type job = {
  req_id : string;
  trace : string; (* distributed-trace id; the req_id unless the client
                     chose one — stable across retry and replacement *)
  t_admit : float; (* admission time on the obs clock, microseconds *)
  conn_id : int;
  test : string;
  model : string; (* a built-in's name or a .cat file's path *)
  cat : string option; (* the .cat file's contents *)
  expected : Exec.Check.verdict option;
  deadline : float; (* absolute, Unix time *)
  vkey : string; (* content fingerprint — cache and quarantine key *)
  chaos : chaos;
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
  sup : (job, Report.entry) Supervisor.t;
  queue : job Queue.t;
  mutable stopping : bool; (* draining: admissions and accepts refused *)
  mutable replacements : int; (* workers lost to a job, each replaced *)
  strikes : (string, int) Hashtbl.t; (* vkey -> worker losses *)
  conns : (int, conn) Hashtbl.t;
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

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Service-level distributions, observed unconditionally
   ({!Obs.Histogram.observe_always}): the [metrics] op must answer with
   real p50/p95/p99 on a daemon that never switched tracing on. *)
let h_latency = Obs.Histogram.make "serve.latency_us"
let h_queue_wait = Obs.Histogram.make "serve.queue_wait_us"

let gave_up_entry job reason =
  {
    Report.item_id = job.req_id;
    status = Report.Gave_up reason;
    time = 0.;
    n_candidates = 0;
    retried = false;
    result = None;
  }

(* A .cat model by its contents, compiled once per process: by the
   daemon at admission, by a worker at its first job naming it. *)
let cat_model cat_models name src =
  let digest = Digest.to_hex (Digest.string src) in
  match Hashtbl.find_opt cat_models digest with
  | Some m -> m
  | None ->
      let m = Model_table.of_cat ~key:("cat:" ^ digest) name (Cat.parse src) in
      Hashtbl.replace cat_models digest m;
      m

(* A request past its absolute deadline, answered without running. *)
let expired cfg job =
  gave_up_entry job
    (Exec.Budget.Timed_out
       (Option.value ~default:0. cfg.limits.Exec.Budget.timeout))

(* The per-job computation, inside a worker process.  The forced
   checkpoint means a worker lost to this job — killed, wedged, OOMed —
   has already left the victim's trace id on disk.  The chaos ops
   really lose the worker: [Kill] SIGKILLs it, [Wedge] holds it without
   ticking any budget until the supervisor does.  A retry is one more
   hop on the request's trace, not a new request, and its entry is
   marked [retried].  A retry's window is fresh, the request's
   deadline is not: a retry past it ends at once, a check [expired], a
   chaos op losing its worker again. *)
let run_job cfg models cat_models ~attempt job =
  Obs.with_span ~item:job.trace "serve.check" (fun () ->
      if attempt > 1 then Obs.event ~item:job.trace "serve.retry";
      if Obs.flight_active () then
        Obs.flight_checkpoint ~reason:"job-start" ();
      let late = attempt > 1 && Unix.gettimeofday () >= job.deadline in
      let entry =
        match (job.chaos, late) with
        | Kill, _ | Wedge _, true ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            assert false
        | Wedge s, false ->
            Unix.sleepf s;
            gave_up_entry job (Exec.Budget.Timed_out s)
        | No_chaos, true -> expired cfg job
        | No_chaos, false ->
            let (m : Model_table.t) =
              match job.cat with
              | Some src -> cat_model cat_models job.model src
              | None -> Hashtbl.find models (String.lowercase_ascii job.model)
            in
            Runner.run_item ~limits:cfg.limits ~deadline:job.deadline
              ~backend:cfg.backend ~oracle:m.oracle
              { Runner.id = job.req_id; source = `Text job.test;
                expected = job.expected }
      in
      { entry with Report.retried = attempt > 1 })

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
(* Supervision: strikes, quarantine, dispatch                          *)
(* ------------------------------------------------------------------ *)

let quarantined p vkey =
  match Hashtbl.find_opt p.strikes vkey with Some s -> s >= 2 | None -> false

(* [n] workers lost to [job] (the supervisor has already replaced
   them): its fingerprint's strikes after counting them. *)
let strike p job n =
  p.replacements <- p.replacements + n;
  let s = n + Option.value ~default:0 (Hashtbl.find_opt p.strikes job.vkey) in
  Hashtbl.replace p.strikes job.vkey s;
  s

let why_lost = function
  | Supervisor.Deadline -> "worker wedged past deadline"
  | Signaled s -> "worker killed by " ^ Exec.Check.signal_name s
  | Exited n -> Printf.sprintf "worker exited with code %d" n
  | Vanished -> "worker vanished"

(* One job's end, as the supervisor classified it: an entry (one strike
   if it needed the retry), or poison lost twice, named by its first
   loss (a retry past the deadline loses its worker on purpose). *)
let completed p (job, _secs, exit) =
  match (exit : Report.entry Supervisor.exit) with
  | Supervisor.Returned entry ->
      if entry.Report.retried then ignore (strike p job 1);
      respond_entry p job entry
  | Lost (first, _) ->
      let s = strike p job 2 in
      Obs.event ~item:job.trace "serve.quarantine";
      finish_job_telemetry job;
      respond p job.conn_id ~cls:Proto.Quarantined
        (Proto.response_line ~id:job.req_id ~cls:Proto.Quarantined
           ~trace:job.trace
           ~msg:(why_lost first ^ "; fingerprint quarantined after "
                 ^ string_of_int s ^ " worker losses")
           ())

(* Hand queued jobs to the idle workers left after the supervisor's due
   retries.  Queue wait (cumulative since admission) lands on the
   request's trace; a job whose deadline was spent in the queue is
   answered without running.  A worker is killed [wedge_grace] past its
   job's deadline. *)
let dispatch p =
  let now = Unix.gettimeofday () in
  while Supervisor.free p.sup > 0 && not (Queue.is_empty p.queue) do
    let job = Queue.pop p.queue in
    let t_dequeue = Obs.now_us () in
    Obs.Histogram.observe_always h_queue_wait (t_dequeue -. job.t_admit);
    Obs.record ~item:job.trace ~start_us:job.t_admit
      ~dur_us:(t_dequeue -. job.t_admit) "serve.queue";
    if job.chaos = No_chaos && now >= job.deadline then
      respond_entry p job (expired p.cfg job)
    else
      Supervisor.submit p.sup
        ~deadline:(job.deadline +. p.cfg.wedge_grace -. now)
        job
  done

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* A model name resolves to its table entry, and a .cat model also to
   the source its jobs carry to the workers. *)
let resolve_model p name =
  match Hashtbl.find_opt p.models (String.lowercase_ascii name) with
  | Some m -> Ok (m, None)
  | None ->
      if Filename.check_suffix name ".cat" && Sys.file_exists name then begin
        match Runner.read_file name with
        | exception Sys_error e -> Error ("cannot read model: " ^ e)
        | src -> (
            match cat_model p.cat_models name src with
            | exception e ->
                Error ("cannot parse model: " ^ Printexc.to_string e)
            | m -> Ok (m, Some src))
      end
      else Error ("unknown model: " ^ name)

let quarantined_keys p =
  Hashtbl.fold (fun _ s n -> if s >= 2 then n + 1 else n) p.strikes 0

(* The served-by-class JSON members, which the [stats] and [metrics]
   ops both render. *)
let served_json p =
  String.concat ", "
    (List.map
       (fun cls ->
         Printf.sprintf "\"%s\": %d" (Proto.cls_name cls)
           p.served.(cls_index cls))
       [ Proto.Ok_; Fail; Unknown; Error; Overloaded; Quarantined ])

let stats_extra p now =
  let busy = Supervisor.busy p.sup in
  [
    ("workers", string_of_int (busy + Supervisor.free p.sup));
    ("busy", string_of_int busy);
    ("queued", string_of_int (Queue.length p.queue));
    ("gated", string_of_int (Supervisor.retrying p.sup));
    ("requests", string_of_int p.n_requests);
    ("replacements", string_of_int p.replacements);
    ("quarantined_keys", string_of_int (quarantined_keys p));
    ("cache_size", string_of_int (Vcache.size p.cache));
    ("cache_hits", string_of_int (Vcache.hits p.cache));
    ("cache_misses", string_of_int (Vcache.misses p.cache));
    ("uptime", Printf.sprintf "%.3f" (now -. p.started_at));
    ("served", "{" ^ served_json p ^ "}");
  ]

(* The [metrics] payload: one self-contained lkmetrics-1 object —
   counters, gauges and latency/queue-wait percentiles — the same shape
   {!Campaign}'s periodic snapshots journal, so one schema
   (ci/metrics.schema.json) validates both surfaces. *)
let metrics_json p now =
  let busy = Supervisor.busy p.sup in
  Printf.sprintf
    "{\"schema\": \"lkmetrics-1\", \"ts_us\": %.1f, \"uptime_s\": %.3f, \
     \"requests\": %d, \"queue_depth\": %d, \"gated\": %d, \
     \"workers_live\": %d, \"workers_busy\": %d, \"replacements\": %d, \
     \"quarantined_keys\": %d, \"backend\": \"%s\", \"cache\": {\"size\": \
     %d, \"hits\": %d, \"misses\": %d}, \"served\": {%s}, \"latency_us\": \
     %s, \"queue_wait_us\": %s}"
    (Obs.now_us ())
    (now -. p.started_at)
    p.n_requests (Queue.length p.queue) (Supervisor.retrying p.sup)
    (busy + Supervisor.free p.sup)
    busy p.replacements (quarantined_keys p)
    (Exec.Check.backend_to_string p.cfg.backend)
    (Vcache.size p.cache) (Vcache.hits p.cache) (Vcache.misses p.cache)
    (served_json p)
    (Obs.hist_metrics_json (Obs.hist_snapshot h_latency))
    (Obs.hist_metrics_json (Obs.hist_snapshot h_queue_wait))

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
                  Queue.push
                    {
                      req_id;
                      trace;
                      t_admit;
                      conn_id = conn.cid;
                      test = "";
                      model = "lk";
                      cat = None;
                      expected = None;
                      deadline = now +. p.cfg.default_timeout;
                      vkey;
                      chaos;
                    }
                    p.queue
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
            | Ok ((m : Model_table.t), cat) -> (
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
                      else if Queue.length p.queue >= p.cfg.queue_bound then
                        overloaded "queue full"
                      else begin
                        let timeout =
                          match c.timeout_ms with
                          | Some ms -> float_of_int ms /. 1000.
                          | None -> p.cfg.default_timeout
                        in
                        Obs.event ~item:trace "serve.admit";
                        Queue.push
                          {
                            req_id;
                            trace;
                            t_admit;
                            conn_id = conn.cid;
                            test = c.test;
                            model = c.model;
                            cat;
                            expected = c.expected;
                            deadline = now +. timeout;
                            vkey;
                            chaos = No_chaos;
                          }
                          p.queue
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
   startup forces shared lazies and warms parse tables once, before the
   workers are forked, so every worker inherits them warm. *)
let warmup_test =
  "C warmup\n\n{ }\n\nP0(int *x) {\n  int r0 = READ_ONCE(*x);\n}\n\n\
   exists (0:r0=1)\n"

let warmup cfg models =
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
             ~backend:cfg.backend ~oracle:m.oracle item))
    models

let create cfg =
  let models = Hashtbl.create 16 in
  List.iter
    (fun (n, m) -> Hashtbl.replace models n m)
    (Model_table.builtins ());
  warmup cfg models;
  let cat_models = Hashtbl.create 8 in
  let sup =
    Supervisor.create ?flight:cfg.flight_dir ~jobs:cfg.workers
      (run_job cfg models cat_models)
  in
  {
    cfg;
    models;
    cat_models;
    cache = Vcache.create ?journal:cfg.cache_journal ~fsync:cfg.fsync ();
    sup;
    queue = Queue.create ();
    stopping = false;
    replacements = 0;
    strikes = Hashtbl.create 16;
    conns = Hashtbl.create 16;
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
  (* Bind the socket (replacing a stale file from a previous crash). *)
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket);
  Unix.listen listen_fd 64;
  let stop = ref false in
  let request_shutdown () = stop := true in
  let install s = Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true)) in
  install Sys.sigterm;
  install Sys.sigint;
  Printf.eprintf "lkserve: listening on %s (%d workers, queue %d%s)\n%!"
    config.socket
    (Supervisor.free p.sup)
    config.queue_bound
    (if config.chaos_ops then ", chaos ops ON" else "");
  let next_cid = ref 0 in
  let buf = Bytes.create 65536 in
  let running = ref true in
  while !running do
    let fds =
      listen_fd
      :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) p.conns
           (Supervisor.fds p.sup)
    in
    let readable, _, _ =
      match Unix.select fds [] [] 0.05 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* Accept new clients (not while draining). *)
    if List.mem listen_fd readable && not p.stopping then begin
      match Unix.accept listen_fd with
      | fd, _ ->
          incr next_cid;
          let cid = !next_cid in
          Hashtbl.replace p.conns cid
            { fd; cid; pending = ""; seen = Hashtbl.create 16;
              discarding = false }
      | exception Unix.Unix_error _ -> ()
    end;
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
    (* Worker completions (a poll: the select above saw them), then
       dispatch to the idle workers. *)
    List.iter (completed p) (Supervisor.wait p.sup ~until:0. ());
    dispatch p;
    (* Shutdown: reject the queue, finish what the supervisor holds,
       retries included (it kills a worker at deadline plus grace),
       then leave. *)
    if !stop && not p.stopping then begin
      p.stopping <- true;
      let orphans = List.of_seq (Queue.to_seq p.queue) in
      Queue.clear p.queue;
      List.iter
        (fun j ->
          respond p j.conn_id ~cls:Proto.Overloaded
            (Proto.response_line ~id:j.req_id ~cls:Proto.Overloaded
               ~trace:j.trace ~msg:"shutting down" ()))
        orphans
    end;
    if p.stopping && Supervisor.running p.sup = 0 then
      running := false
  done;
  Supervisor.close p.sup;
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
  type t = { fd : Unix.file_descr; ic : in_channel; mutable ctr : int }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; ic = Unix.in_channel_of_descr fd; ctr = 0 }

  let fresh_id t =
    t.ctr <- t.ctr + 1;
    Printf.sprintf "c%d" t.ctr

  (* A daemon that went away closes or resets the connection: a write
     then fails with [EPIPE] (SIGPIPE is held off for it) and is
     dropped — unbuffered, so nothing waits for a flush at exit — and
     the read after it is the request's [Error]. *)
  let send t line =
    let b = Bytes.of_string (line ^ "\n") in
    let pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    (try ignore (Unix.write t.fd b 0 (Bytes.length b))
     with Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigpipe pipe

  let recv t =
    match input_line t.ic with
    | line -> Proto.parse_response line
    | exception End_of_file -> Error "connection closed by daemon"
    | exception Sys_error e -> Error ("connection lost: " ^ e)

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

  let close t = close_in_noerr t.ic
end
