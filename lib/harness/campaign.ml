(* Campaign-scale sweeps: fault-tolerant sharded orchestration over
   10^5+ generated tests, with differential mining (Section 5 at scale).

   A campaign is a seed interval partitioned into shards, each a
   deterministic (generator config, seed range) pair.  Tests are
   regenerated on demand inside workers ({!Diygen.test_of_seed}) —
   never materialised as files — so a shard's entire state is its
   range plus a per-seed result journal, and any worker can pick a
   shard up from nothing.  The {!Manifest} journals shard-state
   transitions; a [kill -9] of the orchestrator at any byte offset is
   recoverable, and a resumed campaign mines a report byte-identical
   to an uninterrupted run (the chaos suite gates on this).

   Failure ladder per shard: a shard is one {!Supervisor} job, whose
   deadline is the lease timeout.  The supervisor runs a shard whose
   worker is lost (crash, non-zero exit, lease expiry) once more; that
   retry runs the seed its predecessor died on under the reduced
   budget, and every later seed under the full one.  A shard lost twice
   is bisected (the halves start afresh), narrowing crashes down to the
   poison seed, whose singleton shard is quarantined when it is lost
   twice — reported, never dropped.

   Determinism: per-seed classification is a pure function of
   (config, seed) as long as the budgets carry no wall-clock timeout
   (the defaults do not) — verdicts collapse to Allow/Forbid/Unknown
   strings, hwsim runs are seeded by the campaign seed, and mined
   output is fully sorted with no time fields.  This is what lets the
   chaos gates compare interrupted-and-resumed runs against
   uninterrupted ground truth for byte equality.  It also defuses the
   one unavoidable race: a worker orphaned by a dead orchestrator exits
   by itself within about a second, and until then, sharing a shard
   journal with its replacement, it writes byte-identical lines; a torn
   interleave is dropped by the tolerant reader and re-run. *)

module Json = Journal.Json

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  dir : string; (* manifest + shard journals + report live here *)
  size : int;
  seed_lo : int;
  seed_hi : int;
  shard_size : int;
  jobs : int;
  models : string list; (* subset of "lk", "cat", "c11" *)
  archs : string list; (* hwsim profiles, by Arch.find name *)
  hw_runs : int; (* operational runs per test per arch *)
  limits : Exec.Budget.limits; (* every seed but a retry's first *)
  reduced : Exec.Budget.limits; (* the seed a lost worker died on *)
  lease_timeout : float; (* seconds before a straggler is SIGKILLed *)
  max_rows : int; (* disagreement rows kept per shard *)
  explain : bool; (* attach forensics to mined Forbid-side patterns *)
  backend : Exec.Check.backend; (* engine for the axiomatic columns *)
  poison : int list; (* chaos hook: worker exits 42 at these seeds *)
  wedge : int list; (* chaos hook: worker hangs at these seeds *)
  flight : bool; (* arm the crash flight recorder in every worker *)
  metrics_interval : float; (* seconds between metrics.jsonl snapshots *)
  log : string -> unit;
}

(* Deterministic by construction: the default budgets bound candidates
   and events, never wall-clock — a verdict depends only on (config,
   seed), which the chaos equality gates require.  Adding a timeout is
   fine for production sweeps but trades that equality away. *)
let default =
  {
    dir = "campaign";
    size = 4;
    seed_lo = 0;
    seed_hi = 100_000;
    shard_size = 4096;
    jobs = 2;
    models = [ "lk"; "cat"; "c11" ];
    archs = [];
    hw_runs = 2_000;
    limits = Exec.Budget.limits ~max_events:256 ~max_candidates:100_000 ();
    reduced = Exec.Budget.limits ~max_events:128 ~max_candidates:5_000 ();
    lease_timeout = 300.;
    max_rows = 64;
    explain = false;
    backend = Exec.Oracle.default_backend;
    poison = [];
    wedge = [];
    flight = false;
    metrics_interval = 1.0;
    log = ignore;
  }

let spec_of_config c =
  {
    Manifest.size = c.size;
    seed_lo = c.seed_lo;
    seed_hi = c.seed_hi;
    shard_size = c.shard_size;
  }

let manifest_path dir = Filename.concat dir "manifest.jsonl"

let shard_journal_path dir lo hi =
  Filename.concat dir (Manifest.shard_id lo hi ^ ".jsonl")

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Per-seed classification (the worker's inner loop)                   *)
(* ------------------------------------------------------------------ *)

(* Campaigns pin the generator to the core vocabulary: the spec names
   (size, seed) and this module supplies the rest of the identity. *)
let vocabulary = Diygen.Edge.core_vocabulary

let int_mem k j = Option.map int_of_float (Option.bind (Json.mem k j) Json.num)
let num_mem k j = Option.bind (Json.mem k j) Json.num

let verdict_str = function
  | Exec.Check.Allow -> "Allow"
  | Exec.Check.Forbid -> "Forbid"
  | Exec.Check.Unknown _ -> "Unknown"

(* A test's model columns in one call, so one enumeration serves them
   all.  The call always runs under a budget, even an unlimited one, so
   a model that raises costs only its own column ("Unknown"). *)
let check_verdicts ~backend limits oracles t =
  match oracles with
  | [] -> []
  | _ -> (
      match
        Exec.Oracle.run_all ~backend ~budget:(Exec.Budget.start limits)
          oracles t
      with
      | rs -> List.map (fun r -> verdict_str r.Exec.Check.verdict) rs
      | exception _ -> List.map (fun _ -> "Unknown") oracles)

let c11_oracle = Exec.Oracle.of_model (module Models.C11)

(* The lk and cat columns, built once per worker: the packaged cat
   oracle carries a one-slot prefix cache that must live across the
   whole shard, not per test.  The config's [backend] is the request
   for every model column ({!Exec.Oracle.default_backend} by default). *)
let build_checks config =
  List.filter_map
    (function
      | "lk" -> Some ("lk", Lkmm.oracle)
      | "cat" -> Some ("cat", Cat.to_oracle ~name:"LK(cat)" (Lazy.force Cat.lk))
      | _ -> None)
    config.models

(* One journal line per seed:
     {"seed": 7, "test": null}                      -- walk didn't realise
     {"seed": 8, "test": "...", "time_s": ..,
      "v": {"lk": "Allow", "cat": "Allow", "c11": "-", "hw:Power8": "obs"}}
   A hw column is decided by its first observing run: "obs" when one of
   the [hw_runs] seeded runs satisfies the condition, and the runs after
   it are never made; "unobs" when none does; "err" when the simulator
   raises before any run observes it.  An error a later run would raise
   is not reached, so such a test reads "obs". *)
let classify ~checks ~backend ~c11 ~archs ~hw_runs ~limits ~size seed =
  match Diygen.test_of_seed ~vocabulary ~size seed with
  | None -> Printf.sprintf "{\"seed\": %d, \"test\": null}" seed
  | Some t ->
      let t0 = Unix.gettimeofday () in
      let c11_applies = c11 && Models.C11.applicable t in
      let columns =
        checks @ if c11_applies then [ ("c11", c11_oracle) ] else []
      in
      let v =
        List.combine (List.map fst columns)
          (check_verdicts ~backend limits (List.map snd columns) t)
        @ (if c11 && not c11_applies then [ ("c11", "-") ] else [])
        @ List.map
            (fun (arch : Hwsim.Arch.t) ->
              ( "hw:" ^ arch.Hwsim.Arch.name,
                (* seeded by the campaign seed, so a pure function of
                   (arch, hw_runs, seed, test); the runs stop at the
                   first that observes the condition *)
                match Hwsim.observes arch ~runs:hw_runs ~seed t with
                | true -> "obs"
                | false -> "unobs"
                | exception _ -> "err" ))
            archs
      in
      Printf.sprintf
        "{\"seed\": %d, \"test\": \"%s\", \"time_s\": %.6f, \"v\": {%s}}" seed
        (Report.json_escape t.Litmus.Ast.name)
        (Unix.gettimeofday () -. t0)
        (String.concat ", "
           (List.map
              (fun (m, x) ->
                Printf.sprintf "\"%s\": \"%s\"" (Report.json_escape m)
                  (Report.json_escape x))
              v))

(* ------------------------------------------------------------------ *)
(* Shard journals                                                      *)
(* ------------------------------------------------------------------ *)

type cell = { test : string option; v : (string * string) list; time : float }

(* Torn or foreign lines are dropped ({!Journal} tolerance); duplicate
   seeds resolve last-wins — both writers of a duplicate computed the
   same deterministic line anyway. *)
let read_shard_journal path : (int, cell) Hashtbl.t =
  let tbl = Hashtbl.create 512 in
  Journal.iter_lines path (fun line ->
      match Json.of_string line with
      | exception Json.Malformed _ -> ()
      | j -> (
          match (int_mem "seed" j, Json.mem "test" j) with
          | Some seed, Some test_j ->
              let v =
                match Json.mem "v" j with
                | Some (Json.Obj kvs) ->
                    List.filter_map
                      (fun (k, x) -> Option.map (fun s -> (k, s)) (Json.str x))
                      kvs
                | _ -> []
              in
              Hashtbl.replace tbl seed
                {
                  test = Json.str test_j;
                  v;
                  time = Option.value ~default:0. (num_mem "time_s" j);
                }
          | _ -> ()));
  tbl

(* ------------------------------------------------------------------ *)
(* Disagreement analysis                                               *)
(* ------------------------------------------------------------------ *)

let decisive = function Some "Allow" | Some "Forbid" -> true | _ -> false

(* The reference column all comparisons anchor on: the native model
   when it ran, the cat interpretation otherwise. *)
let reference v =
  match List.assoc_opt "lk" v with
  | Some x -> ("lk", Some x)
  | None -> ("cat", List.assoc_opt "cat" v)

(* Disagreement kinds, by severity: "native-vs-cat" (the two LK
   implementations split — an implementation bug somewhere), then
   "hw-unsound:<arch>" (simulated hardware exhibits what LK forbids),
   then "lk-vs-c11" (an expected modelling gap, Table 5's staple). *)
let kinds_of_verdicts v =
  let get m = List.assoc_opt m v in
  let lk = get "lk" and cat = get "cat" and c11 = get "c11" in
  let _, rv = reference v in
  let ks = ref [] in
  if decisive lk && decisive cat && lk <> cat then
    ks := "native-vs-cat" :: !ks;
  List.iter
    (fun (m, value) ->
      if
        String.length m > 3
        && String.sub m 0 3 = "hw:"
        && value = "obs"
        && rv = Some "Forbid"
      then ks := ("hw-unsound:" ^ String.sub m 3 (String.length m - 3)) :: !ks)
    v;
  if decisive rv && decisive c11 && rv <> c11 then ks := "lk-vs-c11" :: !ks;
  List.sort compare !ks

let severity_of_kind k =
  if k = "native-vs-cat" then 0
  else if String.length k >= 10 && String.sub k 0 10 = "hw-unsound" then 1
  else 2

(* The verdict signature patterns group on, restricted to the models
   the kind compares. *)
let key_of_kind kind v =
  let get m = Option.value ~default:"?" (List.assoc_opt m v) in
  let rname, rv = reference v in
  let rv = Option.value ~default:"?" rv in
  if kind = "native-vs-cat" then
    Printf.sprintf "lk=%s cat=%s" (get "lk") (get "cat")
  else if String.length kind > 11 && String.sub kind 0 11 = "hw-unsound:" then
    Printf.sprintf "%s=%s hw:%s=obs" rname rv
      (String.sub kind 11 (String.length kind - 11))
  else Printf.sprintf "%s=%s c11=%s" rname rv (get "c11")

(* ------------------------------------------------------------------ *)
(* Shard summary                                                       *)
(* ------------------------------------------------------------------ *)

let summarise config ~lo ~hi (cells : (int, cell) Hashtbl.t) :
    Manifest.summary =
  let n_tests = ref 0 and n_unknown = ref 0 and time = ref 0. in
  let counts = Hashtbl.create 32 in
  let rows = ref [] and n_rows = ref 0 and dropped = ref 0 in
  for seed = lo to hi - 1 do
    match Hashtbl.find_opt cells seed with
    | None | Some { test = None; _ } -> ()
    | Some { test = Some name; v; time = t } ->
        incr n_tests;
        time := !time +. t;
        List.iter
          (fun (m, value) ->
            if value = "Unknown" then incr n_unknown;
            let k = m ^ ":" ^ value in
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          v;
        let kinds = kinds_of_verdicts v in
        if kinds <> [] then
          if !n_rows < config.max_rows then begin
            rows := { Manifest.seed; test = name; verdicts = v; kinds } :: !rows;
            incr n_rows
          end
          else incr dropped
  done;
  {
    Manifest.n_seeds = hi - lo;
    n_tests = !n_tests;
    n_unknown = !n_unknown;
    counts =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
      |> List.sort compare;
    rows = List.rev !rows;
    rows_dropped = !dropped;
    time_s = !time;
  }

(* ------------------------------------------------------------------ *)
(* Worker (child process)                                              *)
(* ------------------------------------------------------------------ *)

(* Orchestrator service histograms.  Unconditional (observe_always) so
   the metrics journal carries real shard percentiles even when the
   tracing collector is off. *)
let h_shard_wall = Obs.Histogram.make "campaign.shard_wall_us"
let h_shard_pending = Obs.Histogram.make "campaign.shard_pending_us"

(* One shard, run by a supervised worker.  Seeds already journalled (by
   a predecessor) are skipped, so a retried or resumed shard pays only
   for the seeds it lost.  A retry ([attempt] 2) runs the first seed
   missing from the journal — the one its predecessor died on — under
   the reduced budget, and every later seed under the full one, so no
   seed that never cost a worker is re-budgeted.  With the flight
   recorder armed, every seed forces a checkpoint inside its span, so
   the poison and wedge chaos hooks — like any real crash — leave a
   post-mortem whose open [campaign.seed] span names the victim. *)
let run_shard config ~attempt (lo, hi) =
  let jpath = shard_journal_path config.dir lo hi in
  let done_cells = read_shard_journal jpath in
  let w = Journal.open_writer jpath in
  let checks = build_checks config in
  let c11 = List.mem "c11" config.models in
  let archs = List.map Hwsim.Arch.find config.archs in
  let reduce = ref (attempt >= 2) in
  for seed = lo to hi - 1 do
    if not (Hashtbl.mem done_cells seed) then begin
      let limits = if !reduce then config.reduced else config.limits in
      reduce := false;
      Journal.write_line w
        (Obs.with_span
           ~item:("seed:" ^ string_of_int seed)
           "campaign.seed"
           (fun () ->
             if Obs.flight_active () then
               Obs.flight_checkpoint ~reason:"seed-start" ();
             if List.mem seed config.poison then Unix._exit 42;
             if List.mem seed config.wedge then
               while true do
                 Unix.sleepf 3600.
               done;
             classify ~checks ~backend:config.backend ~c11 ~archs
               ~hw_runs:config.hw_runs ~limits ~size:config.size seed))
    end
  done;
  Journal.close w

(* ------------------------------------------------------------------ *)
(* Split redistribution                                                *)
(* ------------------------------------------------------------------ *)

(* Bisecting a shard distributes its journalled results to the two
   children so completed seeds are never re-run.  Crash-safe without
   ceremony: killed before the parent journal is removed, the children
   get duplicate lines on a later retry — byte-identical (determinism)
   and last-wins on read; killed after, the children already hold
   every line. *)
let redistribute dir ~lo ~hi ~mid =
  let parent = shard_journal_path dir lo hi in
  if Sys.file_exists parent then begin
    let wl = Journal.open_writer (shard_journal_path dir lo mid) in
    let wr = Journal.open_writer (shard_journal_path dir mid hi) in
    Journal.iter_lines parent (fun line ->
        match Json.of_string line with
        | exception Json.Malformed _ -> ()
        | j -> (
            match int_mem "seed" j with
            | Some s when s >= lo && s < mid -> Journal.write_line wl line
            | Some s when s >= mid && s < hi -> Journal.write_line wr line
            | _ -> ()));
    Journal.close wl;
    Journal.close wr;
    try Sys.remove parent with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Mining                                                              *)
(* ------------------------------------------------------------------ *)

type exemplar = { seed : int; test : string; verdicts : (string * string) list }

type pattern = {
  kind : string;
  severity : int;
  key : string;
  count : int;
  exemplars : exemplar list; (* capped at 3, seed order *)
  explanations : string list;
}

type totals = {
  n_shards : int;
  n_quarantined : int;
  n_seeds : int; (* seeds classified in Done shards *)
  n_tests : int;
  n_unknown : int;
  rows_dropped : int;
}

type report = {
  spec : Manifest.spec;
  totals : totals;
  counts : (string * int) list;
  quarantined : Manifest.shard list;
  patterns : pattern list;
}

(* Forbid-side forensics: regenerate the pattern's first exemplar from
   its seed and attach the native model's validated explanations of the
   rejection (axiom-level, see {!Lkmm.Explain}). *)
let attach_explanations ~size (p : pattern) =
  match p.exemplars with
  | ex :: _ when List.assoc_opt "lk" ex.verdicts = Some "Forbid" -> (
      match Diygen.test_of_seed ~vocabulary ~size ex.seed with
      | None -> p
      | Some t -> (
          match
            Exec.Oracle.run
              ~budget:(Exec.Budget.start Exec.Budget.default)
              ~explainer:Lkmm.Explain.explainer Lkmm.oracle t
          with
          | r ->
              {
                p with
                explanations =
                  List.map Exec.Explain.to_string r.Exec.Check.explanations;
              }
          | exception _ -> p))
  | _ -> p

(* Fold the completed manifest into the discrepancy report.  Everything
   is sorted and time-free: two manifests describing the same completed
   campaign mine to byte-identical reports, which is the chaos suite's
   equality gate. *)
let mine ?(explain = false) m =
  let spec = Manifest.spec m in
  let shards = Manifest.shards m in
  let n_seeds = ref 0
  and n_tests = ref 0
  and n_unknown = ref 0
  and rows_dropped = ref 0 in
  let counts = Hashtbl.create 64 in
  let groups : (string * string, int ref * exemplar list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let quarantined = ref [] in
  List.iter
    (fun (sh : Manifest.shard) ->
      match sh.state with
      | Manifest.Done s ->
          n_seeds := !n_seeds + s.Manifest.n_seeds;
          n_tests := !n_tests + s.Manifest.n_tests;
          n_unknown := !n_unknown + s.Manifest.n_unknown;
          rows_dropped := !rows_dropped + s.Manifest.rows_dropped;
          List.iter
            (fun (k, n) ->
              Hashtbl.replace counts k
                (n + Option.value ~default:0 (Hashtbl.find_opt counts k)))
            s.Manifest.counts;
          List.iter
            (fun (r : Manifest.row) ->
              List.iter
                (fun kind ->
                  let key = key_of_kind kind r.Manifest.verdicts in
                  let cnt, exs =
                    match Hashtbl.find_opt groups (kind, key) with
                    | Some g -> g
                    | None ->
                        let g = (ref 0, ref []) in
                        Hashtbl.replace groups (kind, key) g;
                        g
                  in
                  incr cnt;
                  if List.length !exs < 3 then
                    exs :=
                      !exs
                      @ [
                          {
                            seed = r.Manifest.seed;
                            test = r.Manifest.test;
                            verdicts = r.Manifest.verdicts;
                          };
                        ])
                r.Manifest.kinds)
            s.Manifest.rows
      | Manifest.Quarantined _ -> quarantined := sh :: !quarantined
      | Manifest.Pending | Manifest.Leased _ -> ())
    shards;
  let patterns =
    Hashtbl.fold
      (fun (kind, key) (cnt, exs) acc ->
        {
          kind;
          severity = severity_of_kind kind;
          key;
          count = !cnt;
          exemplars = !exs;
          explanations = [];
        }
        :: acc)
      groups []
    |> List.sort (fun a b ->
           compare (a.severity, -a.count, a.kind, a.key)
             (b.severity, -b.count, b.kind, b.key))
  in
  let patterns =
    if explain then List.map (attach_explanations ~size:spec.Manifest.size) patterns
    else patterns
  in
  {
    spec;
    totals =
      {
        n_shards = List.length shards;
        n_quarantined = List.length !quarantined;
        n_seeds = !n_seeds;
        n_tests = !n_tests;
        n_unknown = !n_unknown;
        rows_dropped = !rows_dropped;
      };
    counts =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
      |> List.sort compare;
    quarantined =
      List.sort
        (fun (a : Manifest.shard) b -> compare (a.lo, a.hi) (b.lo, b.hi))
        !quarantined;
    patterns;
  }

(* ------------------------------------------------------------------ *)
(* Report emission                                                     *)
(* ------------------------------------------------------------------ *)

let campaign_schema_version = 1

let esc = Report.json_escape

let exemplar_to_json e =
  Printf.sprintf "{\"seed\": %d, \"test\": \"%s\", \"v\": {%s}}" e.seed
    (esc e.test)
    (String.concat ", "
       (List.map
          (fun (m, x) -> Printf.sprintf "\"%s\": \"%s\"" (esc m) (esc x))
          e.verdicts))

let pattern_to_json p =
  Printf.sprintf
    "{\"kind\": \"%s\", \"severity\": %d, \"key\": \"%s\", \"count\": %d, \
     \"exemplars\": [%s], \"explanations\": [%s]}"
    (esc p.kind) p.severity (esc p.key) p.count
    (String.concat ", " (List.map exemplar_to_json p.exemplars))
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "\"%s\"" (esc s)) p.explanations))

let quarantined_to_json (sh : Manifest.shard) =
  let attempts, error =
    match sh.state with
    | Manifest.Quarantined { attempts; error } -> (attempts, error)
    | _ -> (0, "")
  in
  Printf.sprintf
    "{\"id\": \"%s\", \"lo\": %d, \"hi\": %d, \"attempts\": %d, \"error\": \
     \"%s\"}"
    (Manifest.shard_id sh.lo sh.hi)
    sh.lo sh.hi attempts (esc error)

(* No time fields anywhere: the mined report of a resumed campaign must
   compare byte-equal against an uninterrupted one. *)
let report_to_json r =
  Printf.sprintf
    "{\"campaign_schema_version\": %d, \"spec\": {\"size\": %d, \"seed_lo\": \
     %d, \"seed_hi\": %d, \"shard_size\": %d}, \"totals\": {\"n_shards\": %d, \
     \"n_quarantined\": %d, \"n_seeds\": %d, \"n_tests\": %d, \"n_unknown\": \
     %d, \"rows_dropped\": %d}, \"counts\": {%s}, \"quarantined\": [%s], \
     \"patterns\": [%s]}"
    campaign_schema_version r.spec.Manifest.size r.spec.Manifest.seed_lo
    r.spec.Manifest.seed_hi r.spec.Manifest.shard_size r.totals.n_shards
    r.totals.n_quarantined r.totals.n_seeds r.totals.n_tests
    r.totals.n_unknown r.totals.rows_dropped
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "\"%s\": %d" (esc k) n) r.counts))
    (String.concat ", " (List.map quarantined_to_json r.quarantined))
    (String.concat ", " (List.map pattern_to_json r.patterns))

let report_to_text r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "campaign: size=%d seeds=[%d,%d) shard=%d\n" r.spec.Manifest.size
    r.spec.Manifest.seed_lo r.spec.Manifest.seed_hi
    r.spec.Manifest.shard_size;
  pf "  shards %d (quarantined %d)  seeds %d  tests %d  unknown %d%s\n"
    r.totals.n_shards r.totals.n_quarantined r.totals.n_seeds r.totals.n_tests
    r.totals.n_unknown
    (if r.totals.rows_dropped > 0 then
       Printf.sprintf "  rows dropped %d" r.totals.rows_dropped
     else "");
  if r.counts <> [] then begin
    pf "verdict counts:\n";
    List.iter (fun (k, n) -> pf "  %-24s %d\n" k n) r.counts
  end;
  List.iter
    (fun (sh : Manifest.shard) ->
      match sh.state with
      | Manifest.Quarantined { attempts; error } ->
          pf "quarantined %s after %d attempts: %s\n"
            (Manifest.shard_id sh.lo sh.hi)
            attempts error
      | _ -> ())
    r.quarantined;
  if r.patterns = [] then pf "no cross-model disagreements mined\n"
  else begin
    pf "discrepancies (most severe first):\n";
    List.iter
      (fun p ->
        pf "  [%d] %-18s %-28s %5d tests" p.severity p.kind p.key p.count;
        (match p.exemplars with
        | e :: _ -> pf "  e.g. seed %d %s" e.seed e.test
        | [] -> ());
        pf "\n";
        List.iter
          (fun ex ->
            List.iter (fun l -> pf "        | %s\n" l)
              (String.split_on_char '\n' ex))
          p.explanations)
      r.patterns
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Orchestrator                                                        *)
(* ------------------------------------------------------------------ *)

let run config =
  ensure_dir config.dir;
  match Manifest.open_ (manifest_path config.dir) (spec_of_config config) with
  | Error e -> Error e
  | Ok m ->
      (* Resume: a lease still open was held by a dead orchestrator's
         worker, which exits by itself ({!Supervisor}); the shard goes
         back to Pending and restarts at attempt 1. *)
      List.iter
        (fun (sh : Manifest.shard) ->
          match sh.state with
          | Manifest.Leased _ ->
              Manifest.record m (Manifest.Requeue { lo = sh.lo; hi = sh.hi })
          | _ -> ())
        (Manifest.shards m);
      (* Force the cat model in the parent: workers inherit the parsed
         model copy-on-write instead of each re-parsing it. *)
      if List.mem "cat" config.models then ignore (Lazy.force Cat.lk);
      let sup =
        Supervisor.create
          ?flight:(if config.flight then Some config.dir else None)
          ~jobs:config.jobs
          (run_shard config)
      in
      (* Live telemetry: periodic lkmetrics-1 snapshots journalled
         alongside the manifest.  A separate file the miner never reads
         — the chaos byte-equality gates compare mined reports, which
         stay time-free. *)
      let t0 = Unix.gettimeofday () in
      let metrics_w =
        Journal.open_writer (Filename.concat config.dir "metrics.jsonl")
      in
      let seeds_classified = ref 0 in
      let pending_since : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
      let note_pending lo hi =
        if not (Hashtbl.mem pending_since (lo, hi)) then
          Hashtbl.replace pending_since (lo, hi) (Unix.gettimeofday ())
      in
      let pending () =
        List.filter
          (fun (s : Manifest.shard) ->
            match s.state with Manifest.Pending -> true | _ -> false)
          (Manifest.shards m)
      in
      List.iter
        (fun (sh : Manifest.shard) -> note_pending sh.lo sh.hi)
        (pending ());
      let metrics_line () =
        let now = Unix.gettimeofday () in
        let pending, leased, done_, quarantined =
          List.fold_left
            (fun (p, l, d, q) (s : Manifest.shard) ->
              match s.state with
              | Manifest.Pending -> (p + 1, l, d, q)
              | Manifest.Leased _ -> (p, l + 1, d, q)
              | Manifest.Done _ -> (p, l, d + 1, q)
              | Manifest.Quarantined _ -> (p, l, d, q + 1))
            (0, 0, 0, 0) (Manifest.shards m)
        in
        Printf.sprintf
          "{\"schema\": \"lkmetrics-1\", \"ts_us\": %.0f, \"uptime_s\": \
           %.3f, \"requests\": %d, \"queue_depth\": %d, \"workers_live\": \
           %d, \"workers_busy\": %d, \"shards\": {\"pending\": %d, \
           \"leased\": %d, \"done\": %d, \"quarantined\": %d}, \
           \"latency_us\": %s, \"queue_wait_us\": %s}"
          (now *. 1e6) (now -. t0) !seeds_classified pending
          (Supervisor.busy sup + Supervisor.free sup)
          (Supervisor.busy sup) pending leased
          done_ quarantined
          (Obs.hist_metrics_json (Obs.hist_snapshot h_shard_wall))
          (Obs.hist_metrics_json (Obs.hist_snapshot h_shard_pending))
      in
      (* A shard lost twice splits in two; a singleton is quarantined. *)
      let lost lo hi err =
        if hi - lo <= 1 then begin
          Manifest.record m
            (Manifest.Quarantine { lo; hi; attempts = 2; error = err });
          (try Sys.remove (shard_journal_path config.dir lo hi)
           with Sys_error _ -> ());
          config.log
            (Printf.sprintf "shard %s quarantined after 2 attempts: %s"
               (Manifest.shard_id lo hi) err)
        end
        else begin
          let mid = lo + ((hi - lo) / 2) in
          redistribute config.dir ~lo ~hi ~mid;
          Manifest.record m (Manifest.Split { lo; hi; mid });
          note_pending lo mid;
          note_pending mid hi;
          config.log
            (Printf.sprintf "shard %s split at %d after 2 failures (%s)"
               (Manifest.shard_id lo hi) mid err)
        end
      in
      (* A returned shard is complete unless seeds are missing from its
         journal (a torn line); then it is requeued like a stale lease. *)
      let finalize lo hi =
        let jpath = shard_journal_path config.dir lo hi in
        let cells = read_shard_journal jpath in
        let complete = ref true in
        for s = lo to hi - 1 do
          if not (Hashtbl.mem cells s) then complete := false
        done;
        if not !complete then begin
          Manifest.record m (Manifest.Requeue { lo; hi });
          note_pending lo hi;
          config.log
            (Printf.sprintf "shard %s returned incomplete, requeued"
               (Manifest.shard_id lo hi))
        end
        else begin
          let summary = summarise config ~lo ~hi cells in
          seeds_classified := !seeds_classified + (hi - lo);
          (* the Done event embeds the summary; the per-seed journal is
             now redundant and deleted — the disk-budget guard that
             keeps a 10^5-seed campaign's footprint at O(shards) *)
          Manifest.record m (Manifest.Completed { lo; hi; summary });
          (try Sys.remove jpath with Sys_error _ -> ());
          config.log
            (Printf.sprintf "shard %s done: %d tests, %d disagreement rows"
               (Manifest.shard_id lo hi) summary.Manifest.n_tests
               (List.length summary.Manifest.rows))
        end
      in
      (* A lease is the shard's job; [lease_timeout] is the deadline of
         each of its attempts. *)
      let lease (sh : Manifest.shard) =
        Supervisor.submit sup ~deadline:config.lease_timeout (sh.lo, sh.hi);
        let now = Unix.gettimeofday () in
        (match Hashtbl.find_opt pending_since (sh.lo, sh.hi) with
        | Some since ->
            Obs.Histogram.observe_always h_shard_pending
              ((now -. since) *. 1e6);
            Hashtbl.remove pending_since (sh.lo, sh.hi)
        | None -> ());
        Manifest.record m
          (Manifest.Lease { lo = sh.lo; hi = sh.hi; since = now })
      in
      let reaped ((lo, hi), secs, exit) =
        Obs.Histogram.observe_always h_shard_wall (secs *. 1e6);
        match (exit : unit Supervisor.exit) with
        | Returned () -> finalize lo hi
        | Lost (_, Exited n) -> lost lo hi (Printf.sprintf "exit %d" n)
        | Lost (_, Signaled s) ->
            lost lo hi ("signal " ^ Exec.Check.signal_name s)
        | Lost (_, Deadline) -> lost lo hi "lease expired"
        | Lost (_, Vanished) -> lost lo hi "worker vanished"
      in
      let next_metrics = ref (t0 +. config.metrics_interval) in
      let rec loop () =
        let pending = pending () in
        if pending <> [] || Supervisor.running sup > 0 then begin
          let free = Supervisor.free sup in
          List.iteri (fun i sh -> if i < free then lease sh) pending;
          List.iter reaped (Supervisor.wait sup ~until:!next_metrics ());
          if Unix.gettimeofday () >= !next_metrics then begin
            Journal.write_line metrics_w (metrics_line ());
            next_metrics := Unix.gettimeofday () +. config.metrics_interval
          end;
          loop ()
        end
      in
      loop ();
      Supervisor.close sup;
      (* One final snapshot so even sub-interval campaigns leave a
         non-empty metrics journal. *)
      Journal.write_line metrics_w (metrics_line ());
      Journal.close metrics_w;
      let rep = mine ~explain:config.explain m in
      Manifest.close m;
      Ok rep
