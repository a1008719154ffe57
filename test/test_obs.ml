(* Tests for the observability layer: collector semantics (nesting,
   exception safety, ring overflow, fork-style merge), the structural
   golden shape of the JSONL and Chrome exports on a fixed battery
   test (spans well-nested, counters agreeing with the check result),
   a -j 2 pool run merging every worker's spans into the parent
   collector, and the CPU cost of enabling the collector. *)

let with_collector f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Collector semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_nesting () =
  with_collector @@ fun () ->
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span ~item:"t" "inner" (fun () -> 7))
  in
  Alcotest.(check int) "result threaded through" 7 r;
  match Obs.spans () with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer name" "outer" outer.Obs.name;
      Alcotest.(check string) "inner name" "inner" inner.Obs.name;
      Alcotest.(check int) "inner parent is outer" outer.Obs.id
        inner.Obs.parent;
      Alcotest.(check int) "outer is a root" (-1) outer.Obs.parent;
      Alcotest.(check bool) "inner starts after outer" true
        (inner.Obs.start_us >= outer.Obs.start_us);
      Alcotest.(check bool) "inner ends before outer" true
        (inner.Obs.start_us +. inner.Obs.dur_us
        <= outer.Obs.start_us +. outer.Obs.dur_us +. 1e-6)
  | spans ->
      Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_exception_safety () =
  with_collector @@ fun () ->
  (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.spans () with
  | [ s ] ->
      Alcotest.(check string) "span closed" "boom" s.Obs.name;
      Alcotest.(check bool) "duration recorded" true (s.Obs.dur_us >= 0.);
      (* the open-span stack must be back to empty: a sibling recorded
         after the exception is a root, not a child of "boom" *)
      Obs.with_span "after" (fun () -> ());
      let after = List.nth (Obs.spans ()) 1 in
      Alcotest.(check int) "stack unwound" (-1) after.Obs.parent
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_disabled_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.Counter.make "test.disabled" in
  Obs.Counter.add c 5;
  let r = Obs.with_span "off" (fun () -> 3) in
  Alcotest.(check int) "function still runs" 3 r;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c)

let test_ring_overflow () =
  with_collector @@ fun () ->
  let n = 65536 + 100 in
  for _ = 1 to n do
    Obs.with_span "tick" (fun () -> ())
  done;
  Alcotest.(check int) "ring keeps capacity" 65536
    (List.length (Obs.spans ()));
  Alcotest.(check int) "overflow counted" 100 (Obs.dropped ());
  (* the ring bounds the timeline only: totals count every span *)
  Alcotest.(check int) "totals count every span" n
    (List.assoc "tick" (Obs.span_totals ())).Obs.count

(* A span's self time is its duration less its closed children's; an
   explicitly timed span has no children. *)
let test_self_time () =
  with_collector @@ fun () ->
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> Unix.sleepf 0.002);
      Obs.with_span "inner" (fun () -> ());
      Unix.sleepf 0.001);
  Obs.record ~start_us:0. ~dur_us:50. "manual";
  let totals = Obs.span_totals () in
  let outer = List.assoc "outer" totals and inner = List.assoc "inner" totals in
  Alcotest.(check int) "inner count" 2 inner.Obs.count;
  Alcotest.(check (float 1e-6)) "outer self is total less children"
    (outer.Obs.total_us -. inner.Obs.total_us)
    outer.Obs.self_us;
  Alcotest.(check bool) "outer self covers its own sleep" true
    (outer.Obs.self_us >= 1000.);
  Alcotest.(check (float 1e-6)) "a leaf's self is its total" inner.Obs.total_us
    inner.Obs.self_us;
  Alcotest.(check bool) "max is the longer inner" true
    (inner.Obs.max_us >= 2000. && inner.Obs.max_us <= inner.Obs.total_us);
  let manual = List.assoc "manual" totals in
  Alcotest.(check (list (float 0.))) "recorded span: total, self, max"
    [ 50.; 50.; 50. ]
    [ manual.Obs.total_us; manual.Obs.self_us; manual.Obs.max_us ];
  (* a dump carries the totals, reset clears them, merges add them up *)
  let d = Obs.dump () in
  Obs.reset ();
  Alcotest.(check int) "reset clears totals" 0
    (List.length (Obs.span_totals ()));
  Obs.merge d;
  Obs.merge d;
  Alcotest.(check (list (float 0.))) "merged: count, total, self, max"
    [ 4.; 2. *. inner.Obs.total_us; 2. *. inner.Obs.self_us; inner.Obs.max_us ]
    (let m = List.assoc "inner" (Obs.span_totals ()) in
     [ float_of_int m.Obs.count; m.Obs.total_us; m.Obs.self_us; m.Obs.max_us ])

let test_merge () =
  with_collector @@ fun () ->
  (* a "worker": records one span and a counter, then dumps *)
  Obs.with_span "work" (fun () -> Obs.Counter.incr (Obs.Counter.make "m.c"));
  let d = Obs.dump () in
  Obs.reset ();
  Obs.with_span "parent" (fun () -> ());
  Obs.merge ~tid:41 d;
  Obs.merge ~tid:42 d;
  let spans = Obs.spans () in
  Alcotest.(check int) "parent + two merged copies" 3 (List.length spans);
  let tids =
    List.filter_map
      (fun s -> if s.Obs.name = "work" then Some s.Obs.tid else None)
      spans
  in
  Alcotest.(check (list int)) "merged spans keep worker tids" [ 41; 42 ]
    (List.sort compare tids);
  Alcotest.(check int) "counters summed" 2
    (Obs.Counter.value (Obs.Counter.make "m.c"))

(* ------------------------------------------------------------------ *)
(* Structural golden test on a fixed battery test                      *)
(* ------------------------------------------------------------------ *)

module J = Harness.Journal.Json

let sfield j k = Option.bind (J.mem k j) J.str
let nfield j k = Option.bind (J.mem k j) J.num

let run_fixed ?(name = "MP+wmb+rmb") () =
  let e = Harness.Battery.find name in
  let report =
    Harness.Runner.run
      ~oracle:Lkmm.oracle
      [
        {
          Harness.Runner.id = e.Harness.Battery.name;
          source = `Text e.Harness.Battery.source;
          expected = None;
        };
      ]
  in
  List.hd report.Harness.Runner.entries

(* CoWW: the coherence prefilter rejects one of the two candidates the
   condition leaves open and LK accepts the other, so every counter
   below has something to count, and a name the collector does not list
   (never registered, or never bumped) is a failure, not a 0. *)
let test_counters_match_result () =
  with_collector @@ fun () ->
  let entry = run_fixed ~name:"CoWW" () in
  let r = Option.get entry.Harness.Runner.result in
  let counter name =
    match List.assoc_opt name (Obs.counters ()) with
    | Some v -> v
    | None -> Alcotest.failf "the collector lists no counter %s" name
  in
  Alcotest.(check bool) "CoWW prefilters a candidate" true
    (r.Exec.Check.n_prefiltered > 0);
  Alcotest.(check int) "check.candidates = n_candidates"
    r.Exec.Check.n_candidates
    (counter "check.candidates");
  Alcotest.(check int) "check.prefilter.hits = n_prefiltered"
    r.Exec.Check.n_prefiltered
    (counter "check.prefilter.hits");
  Alcotest.(check int) "check.consistent = n_consistent"
    r.Exec.Check.n_consistent
    (counter "check.consistent");
  Alcotest.(check bool) "relation kernel touched words" true
    (counter "rel.words" > 0);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " observed when traced") true
        (List.mem_assoc name (Obs.histograms ())))
    [ "check.prefilter_us"; "check.model_us" ]

(* [rel.words] charges a function of each kernel's operands, not of the
   branch the kernel takes, so traces stay comparable across kernel
   rewrites and its reading on a fixed check is exact: SB on the scalar
   engine charges 396 words under native LK and 414 under lk.cat. *)
let test_rel_words_pinned () =
  let sb = Harness.Battery.test_of (Harness.Battery.find "SB") in
  List.iter
    (fun (what, oracle, words) ->
      with_collector @@ fun () ->
      ignore (Exec.Oracle.run ~backend:Exec.Check.Enum oracle sb);
      Alcotest.(check int) (what ^ ": rel.words") words
        (Option.value ~default:0 (List.assoc_opt "rel.words" (Obs.counters ()))))
    [
      ("LK", Lkmm.oracle, 396);
      ("lk.cat", Cat.to_oracle ~name:"lk.cat" (Lazy.force Cat.lk), 414);
    ]

(* MP's condition fixes both of P1's read values, so of its four event
   structures (one per pair of values read) the condition gate leaves
   one open, with its one candidate, and refutes three.  The
   every-candidate stream refutes none and visits all four. *)
let test_cond_refuted () =
  let mp = Harness.Battery.test_of (Harness.Battery.find "MP") in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))
  in
  with_collector (fun () ->
      let r = Exec.Oracle.run Lkmm.oracle mp in
      Alcotest.(check int) "exec.structures" 4 (counter "exec.structures");
      Alcotest.(check int) "exec.cond_refuted" 3
        (counter "exec.cond_refuted");
      Alcotest.(check int) "candidates visited" 1 r.Exec.Check.n_candidates);
  with_collector (fun () ->
      let outcomes = Exec.Oracle.allowed_outcomes Lkmm.oracle mp in
      Alcotest.(check int) "every candidate: exec.structures" 4
        (counter "exec.structures");
      Alcotest.(check int) "every candidate: exec.cond_refuted" 0
        (counter "exec.cond_refuted");
      Alcotest.(check int) "every candidate: check.candidates" 4
        (counter "check.candidates");
      Alcotest.(check int) "LK allows every MP outcome" 4
        (List.length outcomes))

let test_spans_well_nested () =
  with_collector @@ fun () ->
  ignore (run_fixed ());
  let spans = Obs.spans () in
  let by_id = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.id s) spans;
  let names = List.map (fun s -> s.Obs.name) spans in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "item"; "parse"; "lint"; "check"; "enumerate"; "sem" ];
  List.iter
    (fun s ->
      if s.Obs.parent >= 0 then
        match Hashtbl.find_opt by_id s.Obs.parent with
        | None -> Alcotest.failf "span %s has a dangling parent" s.Obs.name
        | Some p ->
            Alcotest.(check bool)
              (Printf.sprintf "%s nested in %s" s.Obs.name p.Obs.name)
              true
              (s.Obs.start_us >= p.Obs.start_us -. 1e-6
              && s.Obs.start_us +. s.Obs.dur_us
                 <= p.Obs.start_us +. p.Obs.dur_us +. 1e-6))
    spans

let test_jsonl_shape () =
  with_collector @@ fun () ->
  ignore (run_fixed ());
  let lines =
    Obs.to_jsonl () |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "several lines" true (List.length lines > 5);
  let parsed = List.map J.of_string lines in
  (* every line is typed; the first is the meta line *)
  List.iter
    (fun j ->
      match sfield j "type" with
      | Some ("meta" | "span" | "span_total" | "counter" | "hist") -> ()
      | t ->
          Alcotest.failf "bad line type %s"
            (Option.value ~default:"<none>" t))
    parsed;
  (match parsed with
  | meta :: _ ->
      Alcotest.(check (option string)) "schema tag" (Some "obs-1")
        (sfield meta "schema")
  | [] -> Alcotest.fail "no meta line");
  (* the candidate counter round-trips through the JSONL *)
  let candidates =
    List.find_map
      (fun j ->
        if
          sfield j "type" = Some "counter"
          && sfield j "name" = Some "check.candidates"
        then nfield j "value"
        else None)
      parsed
  in
  Alcotest.(check bool) "candidates counter exported" true
    (match candidates with Some v -> v > 0. | None -> false)

let test_chrome_shape () =
  with_collector @@ fun () ->
  ignore (run_fixed ());
  let doc = J.of_string (Obs.to_chrome ()) in
  let events =
    match J.mem "traceEvents" doc with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "events present" true (events <> []);
  List.iter
    (fun ev ->
      (match sfield ev "ph" with
      | Some ("X" | "C") -> ()
      | ph ->
          Alcotest.failf "bad phase %s" (Option.value ~default:"<none>" ph));
      Alcotest.(check bool) "name present" true (sfield ev "name" <> None);
      Alcotest.(check bool) "ts present" true (nfield ev "ts" <> None))
    events

(* ------------------------------------------------------------------ *)
(* Telemetry surfaces: explicit spans, quantiles, the flight recorder  *)
(* ------------------------------------------------------------------ *)

let test_record_and_event () =
  with_collector @@ fun () ->
  Obs.record ~item:"r1" ~tid:77 ~start_us:100. ~dur_us:50. "manual";
  Obs.event ~item:"retrying" "serve.retry";
  (match Obs.spans () with
  | [ manual; ev ] ->
      Alcotest.(check string) "record name" "manual" manual.Obs.name;
      Alcotest.(check string) "record item" "r1" manual.Obs.item;
      Alcotest.(check int) "record keeps the explicit tid" 77 manual.Obs.tid;
      Alcotest.(check (float 1e-6)) "record start" 100. manual.Obs.start_us;
      Alcotest.(check (float 1e-6)) "record duration" 50. manual.Obs.dur_us;
      Alcotest.(check int) "record is a root" (-1) manual.Obs.parent;
      Alcotest.(check string) "event name" "serve.retry" ev.Obs.name;
      Alcotest.(check (float 1e-6)) "event has zero duration" 0. ev.Obs.dur_us
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  (* neither touched the nesting stack: the next span is still a root *)
  Obs.with_span "after" (fun () -> ());
  let after = List.nth (Obs.spans ()) 2 in
  Alcotest.(check int) "stacks untouched" (-1) after.Obs.parent

let test_quantiles () =
  Obs.reset ();
  Obs.set_enabled false;
  Fun.protect ~finally:Obs.reset @@ fun () ->
  let h = Obs.Histogram.make "test.quantiles" in
  (* observe_always accumulates with the collector off: the always-on
     service histograms (latency, queue wait) depend on this *)
  for i = 1 to 1000 do
    Obs.Histogram.observe_always h (float_of_int i)
  done;
  let s = Obs.hist_snapshot h in
  Alcotest.(check int) "count" 1000 s.Obs.h_count;
  let p50 = Obs.quantile s 0.5
  and p95 = Obs.quantile s 0.95
  and p99 = Obs.quantile s 0.99 in
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p50 inside the observed range" true
    (p50 >= s.Obs.h_min && p50 <= s.Obs.h_max);
  Alcotest.(check bool) "p99 clamped to the observed max" true
    (p99 <= s.Obs.h_max +. 1e-6);
  Alcotest.(check (float 1e-6)) "empty histogram quantile is 0" 0.
    (Obs.quantile (Obs.hist_snapshot (Obs.Histogram.make "test.empty")) 0.5);
  (* the metrics-snapshot object is valid JSON with every member *)
  let j = J.of_string (Obs.hist_metrics_json s) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (nfield j k <> None))
    [ "count"; "p50"; "p95"; "p99"; "max"; "mean" ];
  Alcotest.(check (option (float 0.5))) "count member" (Some 1000.)
    (nfield j "count")

let test_flight_recorder () =
  with_collector @@ fun () ->
  let path = Filename.temp_file "obs_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Obs.flight_active () then Obs.flight_stop ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.flight_start ~interval_us:1e12 ~last:4 path;
      Alcotest.(check bool) "armed" true (Obs.flight_active ());
      Obs.Counter.add (Obs.Counter.make "flight.work") 3;
      Obs.with_span ~item:"victim-item" "job" (fun () ->
          Obs.flight_checkpoint ~reason:"job-start" ());
      Obs.flight_stop ();
      Alcotest.(check bool) "disarmed" false (Obs.flight_active ());
      let lines = Harness.Journal.load_json path in
      Alcotest.(check int) "job-start and stop checkpoints" 2
        (List.length lines);
      let ckpt = List.hd lines in
      Alcotest.(check (option string)) "schema" (Some "lkflight-1")
        (sfield ckpt "schema");
      Alcotest.(check (option (float 0.5))) "pid"
        (Some (float_of_int (Unix.getpid ())))
        (nfield ckpt "pid");
      Alcotest.(check (option string)) "reason" (Some "job-start")
        (sfield ckpt "reason");
      (* the span open at checkpoint time is flagged, with its item *)
      let spans =
        match J.mem "spans" ckpt with
        | Some (J.Arr l) -> l
        | _ -> Alcotest.fail "no spans array"
      in
      let open_spans =
        List.filter
          (fun s -> Option.bind (J.mem "open" s) J.bool_ = Some true)
          spans
      in
      (match open_spans with
      | [ s ] ->
          Alcotest.(check (option string)) "open span is the job" (Some "job")
            (sfield s "name");
          Alcotest.(check (option string)) "victim named" (Some "victim-item")
            (sfield s "item")
      | l -> Alcotest.failf "expected 1 open span, got %d" (List.length l));
      (* counters ride along *)
      let counters =
        match J.mem "counters" ckpt with
        | Some c -> c
        | None -> Alcotest.fail "no counters object"
      in
      Alcotest.(check (option (float 0.5))) "counter at death" (Some 3.)
        (nfield counters "flight.work");
      (* re-arming appends: a restart cannot erase the first life *)
      Obs.flight_start ~interval_us:1e12 path;
      Obs.flight_checkpoint ~reason:"second-life" ();
      Obs.flight_stop ();
      let lives = Harness.Journal.load_json path in
      Alcotest.(check int) "both lives on disk" 4 (List.length lives);
      Alcotest.(check (option string)) "first life intact"
        (Some "job-start")
        (sfield (List.hd lives) "reason"))

let test_concurrent_domains_chrome () =
  with_collector @@ fun () ->
  let worker i () =
    for _ = 1 to 50 do
      Obs.with_span ~item:(string_of_int i) "domain.outer" (fun () ->
          Obs.with_span "domain.inner" (fun () -> ()))
    done
  in
  let ds = List.init 3 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join ds;
  let spans = Obs.spans () in
  Alcotest.(check int) "all spans recorded" 300 (List.length spans);
  let tids = List.sort_uniq compare (List.map (fun s -> s.Obs.tid) spans) in
  Alcotest.(check int) "one tid per domain" 3 (List.length tids);
  (* nesting holds per domain even under interleaved recording *)
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.id s) spans;
  List.iter
    (fun s ->
      if s.Obs.name = "domain.inner" then
        match Hashtbl.find_opt by_id s.Obs.parent with
        | None -> Alcotest.fail "inner span with a dangling parent"
        | Some p ->
            Alcotest.(check string) "parent is the outer span" "domain.outer"
              p.Obs.name;
            Alcotest.(check int) "parent on the same domain" s.Obs.tid
              p.Obs.tid)
    spans;
  (* and the merged Chrome export stays schema-valid: X/C phases only *)
  let doc = J.of_string (Obs.to_chrome ()) in
  let events =
    match J.mem "traceEvents" doc with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "events exported" true (List.length events >= 300);
  List.iter
    (fun ev ->
      match sfield ev "ph" with
      | Some ("X" | "C") -> ()
      | ph ->
          Alcotest.failf "bad phase %s" (Option.value ~default:"<none>" ph))
    events

(* ------------------------------------------------------------------ *)
(* Fork-boundary aggregation through the pool                          *)
(* ------------------------------------------------------------------ *)

let test_pool_merges_workers () =
  with_collector @@ fun () ->
  let items =
    List.map
      (fun name ->
        let e = Harness.Battery.find name in
        {
          Harness.Runner.id = name;
          source = `Text e.Harness.Battery.source;
          expected = None;
        })
      [ "MP+wmb+rmb"; "SB" ]
  in
  let config = { Harness.Pool.default with Harness.Pool.jobs = 2 } in
  let report =
    Harness.Pool.run ~config
      ~oracle:Lkmm.oracle
      items
  in
  Alcotest.(check int) "both items pass" 2 report.Harness.Runner.n_pass;
  let spans = Obs.spans () in
  Alcotest.(check bool) "parent pool span present" true
    (List.exists (fun s -> s.Obs.name = "pool") spans);
  (* each item ran in its own forked worker; its spans merge back tagged
     with that worker's pid *)
  let item_tids =
    List.filter_map
      (fun s -> if s.Obs.name = "item" then Some s.Obs.tid else None)
      spans
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "one worker tid per item" 2 (List.length item_tids);
  List.iter
    (fun tid ->
      Alcotest.(check bool) "worker tid is a pid" true (tid > 0))
    item_tids;
  (* worker counters survive the pipe: the merged collector saw every
     candidate both workers enumerated *)
  let merged =
    match List.assoc_opt "check.candidates" (Obs.counters ()) with
    | Some v -> v
    | None -> 0
  in
  let expected =
    List.fold_left
      (fun acc (e : Harness.Runner.entry) ->
        acc + e.Harness.Runner.n_candidates)
      0 report.Harness.Runner.entries
  in
  Alcotest.(check int) "worker candidate counters merged" expected merged

(* Workers are reused: with one job slot, every item runs in the same
   worker process, so all three item spans carry one tid. *)
let test_pool_reuses_worker () =
  with_collector @@ fun () ->
  let items =
    List.map
      (fun name ->
        let e = Harness.Battery.find name in
        {
          Harness.Runner.id = name;
          source = `Text e.Harness.Battery.source;
          expected = None;
        })
      [ "MP+wmb+rmb"; "SB"; "LB" ]
  in
  let config = { Harness.Pool.default with Harness.Pool.jobs = 1 } in
  let report = Harness.Pool.run ~config ~oracle:Lkmm.oracle items in
  Alcotest.(check int) "all items pass" 3 report.Harness.Runner.n_pass;
  let item_tids =
    List.filter_map
      (fun s -> if s.Obs.name = "item" then Some s.Obs.tid else None)
      (Obs.spans ())
  in
  Alcotest.(check int) "three item spans" 3 (List.length item_tids);
  Alcotest.(check int) "one worker tid" 1
    (List.length (List.sort_uniq compare item_tids))

(* Campaign shard workers go through the same supervisor: every seed's
   span and every worker's counters come back over the result pipe. *)
let test_campaign_merges_workers () =
  with_collector @@ fun () ->
  let dir = Filename.temp_file "obs_campaign" "" in
  Sys.remove dir;
  let config =
    {
      Harness.Campaign.default with
      Harness.Campaign.dir;
      seed_lo = 0;
      seed_hi = 400;
      shard_size = 100;
      models = [ "lk" ];
    }
  in
  (match Harness.Campaign.run config with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  let seeds =
    List.filter (fun s -> s.Obs.name = "campaign.seed") (Obs.spans ())
  in
  Alcotest.(check int) "one campaign.seed span per seed" 400
    (List.length seeds);
  Alcotest.(check bool) "seed spans carry worker pids" true
    (List.for_all (fun s -> s.Obs.tid > 0) seeds);
  Alcotest.(check bool) "worker check counters merged" true
    (Option.value ~default:0
       (List.assoc_opt "check.candidates" (Obs.counters ()))
    > 0)

(* A pool worker SIGKILLed mid-item forfeits its result-pipe dump; the
   flight recorder's item-start checkpoint is the only evidence left.
   The injected worker kills itself the way the watchdog would. *)
let test_pool_flight_postmortem () =
  let dir = Filename.temp_file "obs_pool_flight" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let e = Harness.Battery.find "SB" in
      let items =
        [
          {
            Harness.Runner.id = "SB";
            source = `Text e.Harness.Battery.source;
            expected = None;
          };
        ]
      in
      let config =
        {
          Harness.Pool.default with
          Harness.Pool.jobs = 1;
          flight_dir = Some dir;
        }
      in
      let crashing _item =
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      in
      let report = Harness.Pool.run ~config ~worker:crashing items in
      Alcotest.(check int) "crash classified" 1 report.Harness.Runner.n_crash;
      (* the dead worker left a readable post-mortem naming its item *)
      let victims =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 7 && String.sub f 0 7 = "flight-")
        |> List.concat_map (fun f ->
               Harness.Journal.load_json (Filename.concat dir f))
        |> List.concat_map (fun ckpt ->
               match J.mem "spans" ckpt with
               | Some (J.Arr spans) ->
                   List.filter_map (fun s -> sfield s "item") spans
               | _ -> [])
      in
      Alcotest.(check bool) "post-mortem names the victim item" true
        (List.mem "SB" victims))

let test_report_metrics_object () =
  with_collector @@ fun () ->
  let entry = run_fixed () in
  let report =
    Harness.Report.summarise ~wall:entry.Harness.Runner.time [ entry ]
  in
  let doc = J.of_string (Harness.Report.to_json report) in
  Alcotest.(check (option (float 0.0))) "schema version 5" (Some 5.)
    (Option.bind (J.mem "schema_version" doc) J.num);
  match J.mem "metrics" doc with
  | Some (J.Obj _) -> ()
  | _ -> Alcotest.fail "metrics object missing from enabled-collector report"

(* ------------------------------------------------------------------ *)
(* Overhead                                                            *)
(* ------------------------------------------------------------------ *)

(* Enabling the collector may cost at most 1.25x the CPU time of the
   corpus slice under native LK and lk.cat on the scalar engine: a
   probe that landed on a per-word inner loop costs far more. *)
let test_enabled_overhead () =
  let battery =
    Cpu_ratio.battery
      ~native:(Exec.Check.run [ Exec.Check.model (module Lkmm) ])
      ~cat:
        (Exec.Oracle.run ~backend:Exec.Check.Enum
           (Lazy.force Cpu_ratio.lk_cat))
  in
  let traced () =
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) battery
  in
  let r = Cpu_ratio.median ~base:battery traced in
  Obs.reset ();
  Alcotest.(check bool)
    (Printf.sprintf "enabled/disabled CPU %.3f <= 1.25" r)
    true (r <= 1.25)

let () =
  Alcotest.run "obs"
    [
      ( "collector",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "golden",
        [
          Alcotest.test_case "counters match result" `Quick
            test_counters_match_result;
          Alcotest.test_case "spans well-nested" `Quick test_spans_well_nested;
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
          Alcotest.test_case "chrome shape" `Quick test_chrome_shape;
          Alcotest.test_case "report metrics object" `Quick
            test_report_metrics_object;
          Alcotest.test_case "condition gate counted" `Quick
            test_cond_refuted;
          Alcotest.test_case "rel.words pinned" `Quick test_rel_words_pinned;
        ] );
      ( "pool",
        [
          Alcotest.test_case "merges worker collectors" `Quick
            test_pool_merges_workers;
          Alcotest.test_case "pool reuses one worker" `Quick
            test_pool_reuses_worker;
          Alcotest.test_case "campaign merges worker collectors" `Quick
            test_campaign_merges_workers;
          Alcotest.test_case "flight post-mortem survives SIGKILL" `Quick
            test_pool_flight_postmortem;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "enabled costs at most 1.25x" `Slow
            test_enabled_overhead;
        ] );
      (* last: Unix.fork is forbidden once another domain has existed,
         so the domain-spawning test must follow every forking one *)
      ( "telemetry",
        [
          Alcotest.test_case "record and event" `Quick test_record_and_event;
          Alcotest.test_case "quantiles and metrics object" `Quick
            test_quantiles;
          Alcotest.test_case "flight recorder round-trip" `Quick
            test_flight_recorder;
          Alcotest.test_case "chrome export across domains" `Quick
            test_concurrent_domains_chrome;
        ] );
    ]
