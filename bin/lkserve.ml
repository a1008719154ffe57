(* lkserve: checking-as-a-service — a daemon answering litmus-check
   requests over a Unix socket, on a domain-based worker pool with a
   journal-backed verdict cache.

     lkserve --socket /tmp/lk.sock --workers 4        # run the daemon
     lkserve --socket /tmp/lk.sock --cache-journal cache.jsonl
     lkserve --socket /tmp/lk.sock --client test.litmus   # one check
     lkserve --socket /tmp/lk.sock --stats            # daemon stats
     lkserve --socket /tmp/lk.sock --shutdown         # graceful drain

   The wire protocol is one JSON object per line in each direction
   (Harness.Proto); --client is a convenience for shells and scripts,
   any language that can write JSON to a Unix socket is a client. *)

open Cmdliner

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(value & opt string "lkserve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let workers_arg =
  let doc = "Worker domains checking requests concurrently." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Bound on queued requests; arrivals beyond it are rejected with class \
     $(i,overloaded)."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let default_timeout_arg =
  let doc =
    "Default per-request deadline, seconds (clients override with \
     $(i,timeout_ms))."
  in
  Arg.(value & opt float 10. & info [ "default-timeout" ] ~docv:"SECONDS" ~doc)

let wedge_grace_arg =
  let doc =
    "Seconds past its request's deadline before a busy worker is declared \
     wedged and abandoned."
  in
  Arg.(value & opt float 2.0 & info [ "wedge-grace" ] ~docv:"SECONDS" ~doc)

let cache_journal_arg =
  let doc =
    "Persist the verdict cache as JSONL at $(docv); recovered (torn tail \
     dropped) on restart."
  in
  Arg.(
    value & opt (some string) None & info [ "cache-journal" ] ~docv:"FILE" ~doc)

let fsync_arg =
  let doc = "fsync each cache-journal append (survive power loss)." in
  Arg.(value & flag & info [ "fsync" ] ~doc)

let chaos_ops_arg =
  let doc =
    "Accept the fault-injection ops chaos_kill/chaos_wedge (testing only)."
  in
  Arg.(value & flag & info [ "chaos-ops" ] ~doc)

let max_line_arg =
  let doc = "Reject request lines over $(docv) bytes." in
  Arg.(value & opt int (1 lsl 20) & info [ "max-line" ] ~docv:"BYTES" ~doc)

(* Client mode *)

let client_arg =
  let doc =
    "Act as a client: send each $(docv) (a .litmus file) to the daemon and \
     print the verdicts."
  in
  Arg.(value & pos_all file [] & info [] ~docv:"TEST" ~doc)

let client_flag =
  let doc = "Client mode: check the positional files against the daemon." in
  Arg.(value & flag & info [ "client" ] ~doc)

let model_arg =
  let doc = "Model to check against (client mode)." in
  Arg.(value & opt string "lk" & info [ "model" ] ~docv:"NAME" ~doc)

let stats_flag =
  let doc = "Query the daemon's stats line and exit." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let metrics_dump_flag =
  let doc =
    "Query the daemon's live telemetry snapshot (request counters, queue \
     and worker gauges, p50/p95/p99 latency and queue-wait percentiles) \
     and print it as one JSON object ($(i,lkmetrics-1), see \
     ci/metrics.schema.json)."
  in
  Arg.(value & flag & info [ "metrics-dump" ] ~doc)

let prom_flag =
  let doc =
    "With $(b,--metrics-dump): render the snapshot as Prometheus-style \
     text exposition instead of JSON."
  in
  Arg.(value & flag & info [ "prom" ] ~doc)

let flight_dir_arg =
  let doc =
    "Arm the crash flight recorder: periodic and per-job checkpoints of \
     the observability ring land in $(docv)/flight-<pid>.jsonl, so a kill \
     -9, wedge or quarantine leaves a post-mortem readable with \
     $(b,obs_report --postmortem)."
  in
  Arg.(
    value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR" ~doc)

let flight_interval_arg =
  let doc = "Seconds between opportunistic flight checkpoints." in
  Arg.(
    value & opt float 0.5 & info [ "flight-interval" ] ~docv:"SECONDS" ~doc)

let shutdown_flag =
  let doc = "Ask the daemon to drain and exit." in
  Arg.(value & flag & info [ "shutdown" ] ~doc)

let timeout_ms_arg =
  let doc = "Per-request deadline, milliseconds (client mode)." in
  Arg.(
    value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let print_response label = function
  | Error e ->
      Printf.eprintf "lkserve: %s: %s\n%!" label e;
      2
  | Ok (r : Harness.Proto.response) ->
      let extra =
        match (r.Harness.Proto.rsp_cache_hit, r.Harness.Proto.rsp_verdict) with
        | Some true, Some v -> Printf.sprintf " %s (cached)" v
        | _, Some v -> Printf.sprintf " %s" v
        | _ -> (
            match r.Harness.Proto.rsp_msg with
            | Some m -> " " ^ m
            | None -> "")
      in
      Printf.printf "%-20s %s%s\n%!" label
        (Harness.Proto.cls_name r.Harness.Proto.rsp_cls)
        extra;
      (match r.Harness.Proto.rsp_cls with
      | Harness.Proto.Ok_ -> 0
      | Harness.Proto.Fail -> 1
      | Harness.Proto.Unknown -> 3
      | _ -> 2)

(* Prometheus-style text exposition of one lkmetrics-1 snapshot. *)
let print_prom j =
  let module J = Harness.Journal.Json in
  let num k obj =
    match Option.bind (J.mem k obj) J.num with Some v -> v | None -> 0.
  in
  let g name v = Printf.printf "%s %g\n" name v in
  g "lkserve_uptime_seconds" (num "uptime_s" j);
  g "lkserve_requests_total" (num "requests" j);
  g "lkserve_queue_depth" (num "queue_depth" j);
  g "lkserve_retries_gated" (num "gated" j);
  g "lkserve_workers_live" (num "workers_live" j);
  g "lkserve_workers_busy" (num "workers_busy" j);
  g "lkserve_replacements_total" (num "replacements" j);
  g "lkserve_quarantined_keys" (num "quarantined_keys" j);
  (match J.mem "cache" j with
  | Some c ->
      g "lkserve_cache_size" (num "size" c);
      g "lkserve_cache_hits_total" (num "hits" c);
      g "lkserve_cache_misses_total" (num "misses" c)
  | None -> ());
  (match J.mem "served" j with
  | Some (J.Obj kvs) ->
      List.iter
        (fun (k, v) ->
          match J.num v with
          | Some v ->
              Printf.printf "lkserve_served_total{class=\"%s\"} %g\n" k v
          | None -> ())
        kvs
  | _ -> ());
  let hist key name =
    match J.mem key j with
    | Some h ->
        Printf.printf "%s_count %g\n" name (num "count" h);
        List.iter
          (fun (q, k) ->
            Printf.printf "%s{quantile=\"%s\"} %g\n" name q (num k h))
          [ ("0.5", "p50"); ("0.95", "p95"); ("0.99", "p99") ];
        Printf.printf "%s_max %g\n" name (num "max" h)
    | None -> ()
  in
  hist "latency_us" "lkserve_request_latency_us";
  hist "queue_wait_us" "lkserve_queue_wait_us"

let client_main socket model timeout_ms stats metrics_dump prom shutdown files
    =
  match Harness.Serve.Client.connect socket with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "lkserve: cannot reach daemon at %s: %s\n%!" socket
        (Unix.error_message e);
      2
  | c ->
      let code =
        if metrics_dump then (
          match Harness.Serve.Client.metrics c with
          | Ok r -> (
              match
                Harness.Journal.Json.mem "metrics"
                  r.Harness.Proto.rsp_json
              with
              | Some m ->
                  if prom then print_prom m
                  else print_endline (Harness.Journal.Json.to_string m);
                  0
              | None ->
                  Printf.eprintf "lkserve: metrics: missing payload\n%!";
                  2)
          | Error e ->
              Printf.eprintf "lkserve: metrics: %s\n%!" e;
              2)
        else if stats then (
          match Harness.Serve.Client.stats c with
          | Ok r ->
              (match r.Harness.Proto.rsp_json with
              | Harness.Journal.Json.Obj members ->
                  List.iter
                    (fun (k, v) ->
                      match v with
                      | Harness.Journal.Json.Str s ->
                          Printf.printf "%-18s %s\n" k s
                      | Harness.Journal.Json.Num n ->
                          Printf.printf "%-18s %g\n" k n
                      | _ -> ())
                    members
              | _ -> ());
              0
          | Error e ->
              Printf.eprintf "lkserve: stats: %s\n%!" e;
              2)
        else if shutdown then
          print_response "shutdown" (Harness.Serve.Client.shutdown c)
        else
          List.fold_left
            (fun acc f ->
              let source = Harness.Runner.read_file f in
              let rc =
                print_response (Filename.basename f)
                  (Harness.Serve.Client.check c ~model ?timeout_ms source)
              in
              max acc rc)
            0 files
      in
      Harness.Serve.Client.close c;
      code

let main socket workers queue default_timeout wedge_grace cache_journal fsync
    chaos_ops max_line timeout backend trace metrics flight_dir
    flight_interval client client_files model timeout_ms stats metrics_dump
    prom shutdown =
  if client || stats || metrics_dump || shutdown then
    client_main socket model timeout_ms stats metrics_dump prom shutdown
      client_files
  else
    let limits =
      {
        Exec.Budget.default with
        Exec.Budget.timeout =
          (match timeout with Some t -> Some t | None -> Some default_timeout);
      }
    in
    (* The daemon honours the shared --trace/--metrics flags like every
       other CLI: collector on iff an output was asked for (or a flight
       dir is armed), exports written on the way out — even after a
       failed run. *)
    Harness.Cli.with_obs ~trace ~metrics (fun () ->
        Harness.Serve.run
          ~config:
            {
              Harness.Serve.socket;
              workers;
              queue_bound = queue;
              limits;
              default_timeout;
              max_line;
              wedge_grace;
              max_replacements = 32;
              cache_journal;
              fsync;
              chaos_ops;
              retries = 1;
              backoff = 0.05;
              backend;
              flight_dir;
              flight_interval;
            }
          ())

let cmd =
  let doc = "litmus checking as a service (daemon and client)" in
  let info = Cmd.info "lkserve" ~doc ~exits:Harness.Cli.exit_infos in
  Cmd.v info
    Term.(
      const main $ socket_arg $ workers_arg $ queue_arg $ default_timeout_arg
      $ wedge_grace_arg $ cache_journal_arg $ fsync_arg $ chaos_ops_arg
      $ max_line_arg $ Harness.Cli.timeout_arg $ Harness.Cli.backend_arg
      $ Harness.Cli.trace_arg
      $ Harness.Cli.metrics_arg $ flight_dir_arg $ flight_interval_arg
      $ client_flag $ client_arg $ model_arg $ timeout_ms_arg $ stats_flag
      $ metrics_dump_flag $ prom_flag $ shutdown_flag)

let () = Harness.Cli.eval ~name:"lkserve" cmd
