(* Tests for Harness.Serve: the daemon's protocol edges and failure
   taxonomy — oversized request lines, duplicate ids, malformed JSON,
   mid-request disconnects, deadline-zero requests, chaos-killed and
   wedged workers (supervision, retry, quarantine), graceful SIGTERM
   drain, verdict-cache recovery across a kill -9 restart, and the
   warm/cold throughput ratio that shows cache hits pay.

   The daemon runs as a forked child of the test process (the same
   pattern as test_journal's resume-after-SIGKILL test), so kill -9
   and restart are the real thing. *)

module S = Harness.Serve
module Pr = Harness.Proto
module R = Harness.Runner
module B = Exec.Budget

let src name = (Harness.Battery.find name).Harness.Battery.source
let tmp suffix = Filename.temp_file "serve_test" suffix

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let base_config socket =
  {
    S.default with
    S.socket;
    workers = 2;
    queue_bound = 8;
    limits = B.limits ~timeout:5.0 ();
    default_timeout = 5.0;
    wedge_grace = 0.4;
    chaos_ops = true;
  }

let start_daemon config =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code = try S.run ~config () with _ -> 125 in
      Unix._exit code
  | pid -> pid

(* The daemon is up when its socket accepts a connection. *)
let connect_retry ?(deadline = 30.) socket =
  let stop = Unix.gettimeofday () +. deadline in
  let rec go () =
    match S.Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > stop then
          Alcotest.fail "daemon did not come up"
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let stop_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.ECHILD, _, _) -> () (* already reaped *)

let with_daemon ?(configure = fun c -> c) f =
  let socket = tmp ".sock" in
  Sys.remove socket;
  let config = configure (base_config socket) in
  let pid = start_daemon config in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon pid;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket pid)

let ok_response label = function
  | Ok (r : Pr.response) -> r
  | Error e -> Alcotest.failf "%s: %s" label e

let check_cls label expected (r : Pr.response) =
  Alcotest.(check string) label (Pr.cls_name expected) (Pr.cls_name r.Pr.rsp_cls)

(* ------------------------------------------------------------------ *)
(* Basic service behaviour                                             *)
(* ------------------------------------------------------------------ *)

let test_check_and_cache () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let r =
        ok_response "ping" (S.Client.ping c)
      in
      check_cls "ping is ok" Pr.Ok_ r;
      let test = src "MP+wmb+rmb" in
      let r1 =
        ok_response "first check"
          (S.Client.check c ~expected:Exec.Check.Forbid test)
      in
      check_cls "verdict matches expectation" Pr.Ok_ r1;
      Alcotest.(check (option string)) "verdict" (Some "Forbid") r1.Pr.rsp_verdict;
      Alcotest.(check (option bool)) "first is a miss" (Some false)
        r1.Pr.rsp_cache_hit;
      let r2 =
        ok_response "second check"
          (S.Client.check c ~expected:Exec.Check.Forbid test)
      in
      check_cls "still ok" Pr.Ok_ r2;
      Alcotest.(check (option bool)) "second is a hit" (Some true)
        r2.Pr.rsp_cache_hit;
      (* A hit is re-judged against *this* request's expectation. *)
      let r3 =
        ok_response "contradicted expectation"
          (S.Client.check c ~expected:Exec.Check.Allow test)
      in
      check_cls "cached verdict contradicts new expectation" Pr.Fail r3;
      Alcotest.(check (option bool)) "also served from cache" (Some true)
        r3.Pr.rsp_cache_hit;
      S.Client.close c)

(* A verdict-cache hit must be clearly cheaper than a fresh check.  The
   corpus is cut into eleven interleaved slices.  Each slice goes to the
   daemon one test at a time, twice: a cold pass (its tests are new, so
   every answer is a miss), then a warm pass (every answer a hit).  The
   median over the slices of warm throughput / cold throughput must be
   at least 3.  The daemon is a forked child, so this is wall-clock
   time; the median drops the slices a burst of host load split. *)
let test_cache_pays () =
  let dir = "../../../corpus" in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".litmus")
  in
  let slices =
    List.init 11 (fun k ->
        files
        |> List.filteri (fun i _ -> i mod 11 = k)
        |> List.map (fun f -> (f, R.read_file (Filename.concat dir f))))
  in
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let pass hit tests =
        let t0 = Unix.gettimeofday () in
        let rs = List.map (fun (_, source) -> S.Client.check c source) tests in
        let wall = Unix.gettimeofday () -. t0 in
        List.iter2
          (fun (name, _) r ->
            Alcotest.(check (option bool)) (name ^ " cache") (Some hit)
              (ok_response name r).Pr.rsp_cache_hit)
          tests rs;
        wall
      in
      let ratios =
        List.map
          (fun tests ->
            let cold = pass false tests in
            cold /. pass true tests)
          slices
        |> List.sort Float.compare
      in
      S.Client.close c;
      let r = List.nth ratios 5 in
      Alcotest.(check bool)
        (Printf.sprintf "warm/cold throughput %.2f >= 3" r)
        true (r >= 3.))

let test_parse_error_classified () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let r =
        ok_response "broken test" (S.Client.check c "C broken\n{ x=0;\nP0(")
      in
      check_cls "parse error is class error" Pr.Error r;
      Alcotest.(check (option string)) "entry status" (Some "error")
        r.Pr.rsp_status;
      S.Client.close c)

let test_deadline_zero () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let r =
        ok_response "deadline-zero"
          (S.Client.check c ~timeout_ms:0 (src "SB"))
      in
      check_cls "already-expired deadline is unknown" Pr.Unknown r;
      (* the daemon is unscathed *)
      check_cls "ping after" Pr.Ok_ (ok_response "ping" (S.Client.ping c));
      S.Client.close c)

(* ------------------------------------------------------------------ *)
(* Telemetry: metrics op, trace propagation, flight post-mortems       *)
(* ------------------------------------------------------------------ *)

module J = Harness.Journal.Json

let test_metrics_op () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let _ = ok_response "warm check" (S.Client.check c (src "SB")) in
      let r = ok_response "metrics" (S.Client.metrics c) in
      check_cls "metrics is ok" Pr.Ok_ r;
      let m =
        match J.mem "metrics" r.Pr.rsp_json with
        | Some m -> m
        | None -> Alcotest.fail "response has no metrics member"
      in
      Alcotest.(check (option string)) "schema" (Some "lkmetrics-1")
        (Option.bind (J.mem "schema" m) J.str);
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (J.mem k m <> None))
        [
          "ts_us"; "uptime_s"; "requests"; "queue_depth"; "workers_live";
          "workers_busy"; "backend"; "served"; "latency_us"; "queue_wait_us";
        ];
      (* the check we just served is on the latency surface, even though
         the collector is off by default *)
      let count =
        Option.bind (Option.bind (J.mem "latency_us" m) (J.mem "count")) J.num
      in
      Alcotest.(check bool) "served check counted in latency_us" true
        (match count with Some n -> n >= 1. | None -> false);
      let live =
        Option.bind (J.mem "workers_live" m) J.num
      in
      Alcotest.(check (option (float 0.5))) "both workers live" (Some 2.) live;
      S.Client.close c)

let test_trace_propagation () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let r =
        ok_response "traced check"
          (S.Client.check c ~trace:"trace-abc" (src "SB"))
      in
      check_cls "traced check ok" Pr.Ok_ r;
      Alcotest.(check (option string)) "trace echoed" (Some "trace-abc")
        r.Pr.rsp_trace;
      (* without an explicit trace the request id names the trace *)
      let r2 =
        ok_response "untraced check"
          (S.Client.check c ~id:"req-7" (src "MP+wmb+rmb"))
      in
      Alcotest.(check (option string)) "default trace is the request id"
        (Some "req-7") r2.Pr.rsp_trace;
      S.Client.close c)

(* The trace id must survive the whole supervision ladder: a kill is
   retried on a replacement worker and finally quarantined; a wedge is
   abandoned-and-replaced.  Both answers must still carry the trace the
   client chose, so a fleet-side collector can join them. *)
let test_trace_stable_across_supervision () =
  with_daemon
    ~configure:(fun c -> { c with S.default_timeout = 0.3; wedge_grace = 0.3 })
    (fun socket _pid ->
      let c = connect_retry socket in
      let r = ok_response "kill" (S.Client.chaos_kill ~trace:"poison-1" c) in
      check_cls "kill quarantined" Pr.Quarantined r;
      Alcotest.(check (option string)) "trace survives retry and quarantine"
        (Some "poison-1") r.Pr.rsp_trace;
      let r2 =
        ok_response "wedge" (S.Client.chaos_wedge ~trace:"wedge-1" c 30.0)
      in
      check_cls "wedge quarantined" Pr.Quarantined r2;
      Alcotest.(check (option string)) "trace survives abandon-and-replace"
        (Some "wedge-1") r2.Pr.rsp_trace;
      S.Client.close c)

(* With the flight recorder armed, a chaos-killed worker's job-start
   checkpoint must name the victim request's trace — readable after the
   daemon itself is SIGKILLed (stop_daemon), exactly the post-mortem
   situation obs_report --postmortem serves. *)
let test_flight_postmortem () =
  let dir = Filename.temp_file "serve_flight" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      with_daemon
        ~configure:(fun c ->
          { c with S.flight_dir = Some dir; flight_interval = 0.1 })
        (fun socket _pid ->
          let c = connect_retry socket in
          let r =
            ok_response "kill" (S.Client.chaos_kill ~trace:"victim-9" c)
          in
          check_cls "kill quarantined" Pr.Quarantined r;
          S.Client.close c);
      (* daemon SIGKILLed by with_daemon: whatever is on disk is all the
         evidence there will ever be *)
      let victims =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 7 && String.sub f 0 7 = "flight-")
        |> List.concat_map (fun f ->
               Harness.Journal.load_json (Filename.concat dir f))
        |> List.concat_map (fun ckpt ->
               match J.mem "spans" ckpt with
               | Some (J.Arr spans) ->
                   List.filter_map
                     (fun s -> Option.bind (J.mem "item" s) J.str)
                     spans
               | _ -> [])
      in
      Alcotest.(check bool) "post-mortem names the victim trace" true
        (List.mem "victim-9" victims))

(* A wedged worker is a process, killed at its deadline: every
   job-start checkpoint naming the wedged request's trace was written by
   a worker that no longer exists. *)
let test_wedge_kills_worker_process () =
  let dir = Filename.temp_file "serve_wedge" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      with_daemon
        ~configure:(fun c ->
          { c with S.default_timeout = 0.3; wedge_grace = 0.3;
            flight_dir = Some dir })
        (fun socket _pid ->
          let c = connect_retry socket in
          let r =
            ok_response "wedge" (S.Client.chaos_wedge ~trace:"wedge-pid" c 30.0)
          in
          check_cls "wedge quarantined" Pr.Quarantined r;
          S.Client.close c;
          let names_trace ckpt =
            match J.mem "spans" ckpt with
            | Some (J.Arr spans) ->
                List.exists
                  (fun s ->
                    Option.bind (J.mem "item" s) J.str = Some "wedge-pid")
                  spans
            | _ -> false
          in
          let pids =
            Sys.readdir dir |> Array.to_list
            |> List.concat_map (fun f ->
                   Harness.Journal.load_json (Filename.concat dir f))
            |> List.filter (fun ckpt ->
                   Option.bind (J.mem "reason" ckpt) J.str = Some "job-start"
                   && names_trace ckpt)
            |> List.filter_map (fun ckpt ->
                   Option.bind (J.mem "pid" ckpt) J.num)
            |> List.map int_of_float
          in
          Alcotest.(check bool) "a job-start checkpoint names the trace" true
            (pids <> []);
          List.iter
            (fun pid ->
              Alcotest.(check bool)
                (Printf.sprintf "pid %d no longer exists" pid)
                true
                (match Unix.kill pid 0 with
                | () -> false
                | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true))
            pids))

(* ------------------------------------------------------------------ *)
(* Protocol edges                                                      *)
(* ------------------------------------------------------------------ *)

let test_malformed_and_unknown () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      S.Client.send c "{this is not json";
      check_cls "malformed JSON" Pr.Error (ok_response "recv" (S.Client.recv c));
      S.Client.send c "{\"id\": \"x\", \"op\": \"frobnicate\"}";
      check_cls "unknown op" Pr.Error (ok_response "recv" (S.Client.recv c));
      S.Client.send c "{\"op\": \"ping\"}";
      check_cls "missing id" Pr.Error (ok_response "recv" (S.Client.recv c));
      let r =
        ok_response "unknown model"
          (S.Client.check c ~model:"no-such-model" (src "SB"))
      in
      check_cls "unknown model" Pr.Error r;
      S.Client.close c)

let test_duplicate_ids () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      let r1 = ok_response "first" (S.Client.check c ~id:"dup" (src "SB")) in
      check_cls "first use of the id" Pr.Ok_ r1;
      let r2 = ok_response "second" (S.Client.check c ~id:"dup" (src "SB")) in
      check_cls "duplicate id rejected" Pr.Error r2;
      (* a different connection may reuse the id *)
      let c2 = connect_retry socket in
      let r3 = ok_response "other conn" (S.Client.check c2 ~id:"dup" (src "SB")) in
      check_cls "ids are per-connection" Pr.Ok_ r3;
      S.Client.close c;
      S.Client.close c2)

let test_oversized_line () =
  with_daemon
    ~configure:(fun c -> { c with S.max_line = 4096 })
    (fun socket _pid ->
      let c = connect_retry socket in
      let big = String.make 20_000 'x' in
      S.Client.send c ("{\"id\": \"big\", \"op\": \"check\", \"test\": \"" ^ big);
      let r = ok_response "oversized" (S.Client.recv c) in
      check_cls "oversized line rejected" Pr.Error r;
      (match r.Pr.rsp_msg with
      | Some m ->
          Alcotest.(check bool) "message names the bound" true
            (String.length m > 0)
      | None -> Alcotest.fail "oversized rejection carries a message");
      (* the rest of the oversized line is discarded, the connection
         survives, and the next request is served normally *)
      check_cls "connection survives" Pr.Ok_
        (ok_response "ping after oversized" (S.Client.ping c));
      S.Client.close c)

let test_disconnect_mid_request () =
  with_daemon (fun socket _pid ->
      (* half a request, then vanish *)
      let c1 = connect_retry socket in
      S.Client.send c1 "{\"id\": \"gone\", \"op\": \"che";
      S.Client.close c1;
      (* a full request whose answer has nowhere to go *)
      let c2 = connect_retry socket in
      S.Client.send c2
        (Pr.check_line ~id:"orphan" (src "SB"));
      S.Client.close c2;
      Unix.sleepf 0.3;
      (* the daemon took both in stride *)
      let c3 = connect_retry socket in
      check_cls "daemon alive after disconnects" Pr.Ok_
        (ok_response "ping" (S.Client.ping c3));
      S.Client.close c3)

(* ------------------------------------------------------------------ *)
(* Supervision: killed and wedged workers                              *)
(* ------------------------------------------------------------------ *)

let test_chaos_kill_quarantines () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      (* the kill request costs a worker, is retried once, costs the
         replacement too, and is quarantined — never unanswered *)
      let r = ok_response "chaos kill" (S.Client.chaos_kill c) in
      check_cls "poison request quarantined" Pr.Quarantined r;
      (* both lost workers were replaced: real work still completes *)
      let r2 =
        ok_response "check after kills"
          (S.Client.check c ~expected:Exec.Check.Allow (src "SB"))
      in
      check_cls "service recovered" Pr.Ok_ r2;
      S.Client.close c)

let test_chaos_wedge_detected () =
  with_daemon
    ~configure:(fun c -> { c with S.default_timeout = 0.3; wedge_grace = 0.3 })
    (fun socket _pid ->
      let c = connect_retry socket in
      (* wedge far past deadline + grace: the supervisor abandons the
         worker, retries, abandons the retry, quarantines *)
      let t0 = Unix.gettimeofday () in
      let r = ok_response "wedge" (S.Client.chaos_wedge c 30.0) in
      let took = Unix.gettimeofday () -. t0 in
      check_cls "wedged request quarantined" Pr.Quarantined r;
      Alcotest.(check bool) "answered by supervision, not by the wedge"
        true (took < 10.0);
      let r2 =
        ok_response "check after wedges"
          (S.Client.check c ~expected:Exec.Check.Allow (src "SB"))
      in
      check_cls "replacement workers serve" Pr.Ok_ r2;
      S.Client.close c)

(* The request's deadline is absolute, the retry's window is not: a
   retry that starts past the deadline ends at once, so a wedged request
   is answered about [wedge_grace] past its deadline, once, and not after
   a second full window.  Quarantined, and named by its first loss. *)
let test_wedge_answered_at_deadline () =
  let timeout = 1.0 and grace = 0.5 in
  with_daemon
    ~configure:(fun c ->
      { c with S.default_timeout = timeout; wedge_grace = grace })
    (fun socket _pid ->
      let c = connect_retry socket in
      let t0 = Unix.gettimeofday () in
      let r = ok_response "wedge" (S.Client.chaos_wedge c 30.0) in
      let took = Unix.gettimeofday () -. t0 in
      check_cls "wedged request quarantined" Pr.Quarantined r;
      Alcotest.(check bool) "the quarantine names the wedge" true
        (match r.Pr.rsp_msg with
        | Some m -> String.starts_with ~prefix:"worker wedged past deadline" m
        | None -> false);
      Alcotest.(check bool) "not answered before deadline plus grace" true
        (took >= timeout +. grace);
      (* two windows would be 3 s *)
      Alcotest.(check bool)
        (Printf.sprintf "answered %.2f s after admission, within 2.25 s" took)
        true
        (took < 1.5 *. (timeout +. grace));
      S.Client.close c)

(* A connection the daemon side resets (here: a listening socket closed
   with the connection still in its backlog, as when a daemon dies
   before accepting) is an [Error] from the client, never an
   exception, on the send and the receive alike. *)
let test_client_reset () =
  let socket = tmp ".sock" in
  Sys.remove socket;
  let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX socket);
  Unix.listen l 4;
  let c = S.Client.connect socket in
  Unix.close l;
  Sys.remove socket;
  let lost label = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: a reset connection cannot answer" label
  in
  lost "first request" (S.Client.ping c);
  lost "second request" (S.Client.ping c);
  (* no unsent bytes are left for a later flush: with SIGPIPE at its
     default, one would kill this process here *)
  flush_all ();
  S.Client.close c

(* One request on a raw socket whose receive times out after [secs], so
   a daemon that never answers fails the test instead of hanging it. *)
let request_with_timeout socket secs line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs;
      let msg = Bytes.of_string (line ^ "\n") in
      ignore (Unix.write fd msg 0 (Bytes.length msg));
      let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
      let rec read () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Error "connection closed by daemon"
        | n -> (
            Buffer.add_subbytes buf chunk 0 n;
            let got = Buffer.contents buf in
            match String.index_opt got '\n' with
            | Some i -> Pr.parse_response (String.sub got 0 i)
            | None -> read ())
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            Error (Printf.sprintf "no answer within %.0f s" secs)
      in
      read ())

(* Every lost worker is replaced, however many: 17 poison requests cost
   34 workers, and an ordinary check is still answered. *)
let test_kills_never_exhaust_workers () =
  with_daemon (fun socket _pid ->
      let c = connect_retry socket in
      for i = 1 to 17 do
        check_cls
          (Printf.sprintf "kill %d quarantined" i)
          Pr.Quarantined
          (ok_response "chaos kill" (S.Client.chaos_kill c))
      done;
      S.Client.close c;
      let r =
        ok_response "check after 34 worker losses"
          (request_with_timeout socket 10.
             (Pr.check_line ~id:"after" ~expected:Exec.Check.Allow (src "SB")))
      in
      check_cls "service still answers" Pr.Ok_ r)

(* ------------------------------------------------------------------ *)
(* Restart recovery                                                    *)
(* ------------------------------------------------------------------ *)

let stat_num (r : Pr.response) key =
  match Harness.Journal.Json.mem key r.Pr.rsp_json with
  | Some (Harness.Journal.Json.Num n) -> int_of_float n
  | Some (Harness.Journal.Json.Str s) -> int_of_string s
  | _ -> Alcotest.failf "stats missing %s" key

let test_cache_survives_kill9 () =
  let journal = tmp ".jsonl" in
  Sys.remove journal;
  let socket = tmp ".sock" in
  Sys.remove socket;
  let config =
    { (base_config socket) with S.cache_journal = Some journal; fsync = false }
  in
  let test = src "MP+wmb+rmb" in
  let live_pid = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop_daemon !live_pid;
      (try Sys.remove journal with Sys_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      (* first life: answer once (a miss), then die without warning *)
      let pid = start_daemon config in
      live_pid := Some pid;
      let c = connect_retry socket in
      let r1 =
        ok_response "first life"
          (S.Client.check c ~expected:Exec.Check.Forbid test)
      in
      check_cls "fresh verdict" Pr.Ok_ r1;
      Alcotest.(check (option bool)) "a miss" (Some false) r1.Pr.rsp_cache_hit;
      S.Client.close c;
      stop_daemon pid (* kill -9: no drain, no close path *);
      (* second life: same journal, the verdict is already known *)
      let pid = start_daemon config in
      live_pid := Some pid;
      let c2 = connect_retry socket in
      let r2 =
        ok_response "second life"
          (S.Client.check c2 ~expected:Exec.Check.Forbid test)
      in
      check_cls "recovered verdict" Pr.Ok_ r2;
      Alcotest.(check (option bool)) "a hit, recovered from the journal"
        (Some true) r2.Pr.rsp_cache_hit;
      (* the hit is visible on the metrics surface *)
      let st = ok_response "stats" (S.Client.stats c2) in
      Alcotest.(check bool) "cache-hit counter counted it" true
        (stat_num st "cache_hits" >= 1);
      Alcotest.(check bool) "recovered entry populates the cache" true
        (stat_num st "cache_size" >= 1);
      S.Client.close c2)

let test_sigterm_drains () =
  with_daemon (fun socket pid ->
      let c = connect_retry socket in
      check_cls "warm" Pr.Ok_ (ok_response "ping" (S.Client.ping c));
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "drain exited %d" n
      | Unix.WSIGNALED s -> Alcotest.failf "drain died on signal %d" s
      | Unix.WSTOPPED _ -> Alcotest.fail "stopped");
      Alcotest.(check bool) "socket unlinked after drain" false
        (Sys.file_exists socket);
      S.Client.close c)

let () =
  Alcotest.run "serve"
    [
      ( "service",
        [
          Alcotest.test_case "check, cache hit, re-judged expectation" `Slow
            test_check_and_cache;
          Alcotest.test_case "cache hits pay at least 3x" `Slow
            test_cache_pays;
          Alcotest.test_case "parse error classified" `Slow
            test_parse_error_classified;
          Alcotest.test_case "deadline zero is unknown" `Slow
            test_deadline_zero;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics op" `Slow test_metrics_op;
          Alcotest.test_case "trace propagation" `Slow test_trace_propagation;
          Alcotest.test_case "trace stable across supervision" `Slow
            test_trace_stable_across_supervision;
          Alcotest.test_case "flight post-mortem after chaos kill" `Slow
            test_flight_postmortem;
          Alcotest.test_case "wedged worker's process is gone" `Slow
            test_wedge_kills_worker_process;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed, unknown op, unknown model" `Slow
            test_malformed_and_unknown;
          Alcotest.test_case "duplicate ids" `Slow test_duplicate_ids;
          Alcotest.test_case "oversized line" `Slow test_oversized_line;
          Alcotest.test_case "mid-request disconnect" `Slow
            test_disconnect_mid_request;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "killed workers: retry then quarantine" `Slow
            test_chaos_kill_quarantines;
          Alcotest.test_case "wedged workers: abandon and replace" `Slow
            test_chaos_wedge_detected;
          Alcotest.test_case "17 kills leave the daemon serving" `Slow
            test_kills_never_exhaust_workers;
          Alcotest.test_case "a wedged request is answered at its deadline"
            `Slow test_wedge_answered_at_deadline;
          Alcotest.test_case "a reset connection is an error" `Quick
            test_client_reset;
        ] );
      ( "restart",
        [
          Alcotest.test_case "cache survives kill -9" `Slow
            test_cache_survives_kill9;
          Alcotest.test_case "SIGTERM drains cleanly" `Slow test_sigterm_drains;
        ] );
    ]
