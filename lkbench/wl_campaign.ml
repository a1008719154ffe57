(* Workload [campaign]: Campaign.run at -j 2 over consecutive seed
   slices (cycle size 6, model columns lk/cat/c11, Power8 simulated at a
   small hw_runs).  The only workload that reaches diygen generation
   (a few percent of seeds realise a test), fork-per-shard supervision,
   manifest journalling, mining and hwsim.

   One operation is one slice: ops_per_cpu_s counts seeds classified per
   CPU second of the orchestrator and its workers (seeds_per_s), the
   op_cpu figures are that CPU time per Campaign.run call.
   Correctness: the mined report of the seed's first slice must match
   an in-process replay of every seed (same generator, oracles, budgets
   and simulator seeds), and its report_to_json digest must come out
   byte-identical when the slice is run again at the end. *)

open Common
module Camp = Harness.Campaign

let jobs = 2
let size = 6
let slice = 2000
let shard_size = 1000
let arch = "Power8"
let hw_runs = 100

(* campaigns pin the generator to the core vocabulary (Campaign's own
   choice, not exported) *)
let vocabulary = Diygen.Edge.core_vocabulary

let slice_lo seed k = (abs seed mod 100_000 * 10_000_000) + (k * slice)

let config dir seed k =
  {
    Camp.default with
    Camp.dir;
    size;
    seed_lo = slice_lo seed k;
    seed_hi = slice_lo seed k + slice;
    shard_size;
    jobs;
    archs = [ arch ];
    hw_runs;
    log = ignore;
  }

let inputs_digest seed =
  let lo = slice_lo seed 0 in
  Digest.string
    (String.concat "\n"
       (List.init 2000 (fun i ->
            match Diygen.test_of_seed ~vocabulary:vocabulary ~size (lo + i) with
            | Some t -> t.Litmus.Ast.name
            | None -> "-")))

(* One slice through the orchestrator, in a fresh directory: its wall
   time, and the CPU time of the orchestrator and its reaped shard
   workers. *)
let run_slice seed k =
  let dir = fresh_dir (Printf.sprintf "campaign-%d" k) in
  let t0 = now () and c0 = cpu () in
  let rep =
    match Camp.run (config dir seed k) with
    | Ok rep -> rep
    | Error e -> failwith ("campaign: " ^ e)
  in
  let wall = now () -. t0 and busy = cpu () -. c0 in
  (dir, wall, busy, rep)

(* ------------------------------------------------------------------ *)
(* The in-process replay of a slice's per-seed work                    *)
(* ------------------------------------------------------------------ *)

let verdict_str = function
  | Exec.Check.Allow -> "Allow"
  | Exec.Check.Forbid -> "Forbid"
  | Exec.Check.Unknown _ -> "Unknown"

(* Classify one seed as a campaign worker does: [column name test]
   gives the verdict string of an axiomatic column. *)
let classify ~column ~hw seed =
  match Diygen.test_of_seed ~vocabulary:vocabulary ~size seed with
  | None -> None
  | Some t ->
      let c11 = if Models.C11.applicable t then column "c11" t else "-" in
      Some [ ("lk", column "lk" t); ("cat", column "cat" t); ("c11", c11); ("hw:" ^ arch, hw t seed) ]

let hwsim t seed =
  match Hwsim.run_test (Hwsim.Arch.find arch) ~runs:hw_runs ~seed t with
  | s -> if s.Hwsim.matched > 0 then "obs" else "unobs"
  | exception _ -> "err"

let counts_of cells =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (m, v) ->
         let k = m ^ ":" ^ v in
         Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    cells;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

(* Untraced replay, with the campaign's own budgets. *)
let replay seed =
  let cat = cat_oracle () in
  let limits = Camp.default.Camp.limits in
  let column name t =
    let oracle = match name with "lk" -> Lkmm.oracle | "cat" -> cat | _ -> c11_oracle in
    match Exec.Oracle.run ~budget:(Exec.Budget.start limits) oracle t with
    | r -> verdict_str r.Exec.Check.verdict
    | exception _ -> "Unknown"
  in
  let lo = slice_lo seed 0 in
  List.filter_map (fun s -> classify ~column ~hw:hwsim s) (List.init slice (fun i -> lo + i))

let verify seed (rep : Camp.report) =
  let cells = replay seed in
  let ok =
    rep.Camp.counts = counts_of cells
    && rep.Camp.totals.Camp.n_tests = List.length cells
  in
  if not ok then wrong "campaign: slice 0 report disagrees with the in-process replay";
  ok

let report_digest rep = Digest.to_hex (Digest.string (Camp.report_to_json rep))

(* The program's set-up, in [dir]: a fresh campaign manifest. *)
let setup dir seed =
  let spec = Camp.spec_of_config (config dir seed 0) in
  fun () ->
    let path = Camp.manifest_path dir in
    if Sys.file_exists path then Sys.remove path;
    match Harness.Manifest.open_ path spec with
    | Ok m -> Harness.Manifest.close m
    | Error e -> failwith ("campaign: manifest: " ^ e)

let run ~seed ~seconds =
  let setup_dir = fresh_dir "campaign-setup" in
  let meter = Meter.start ~setup:(setup setup_dir seed) in
  let dir0, _, _, rep0 = run_slice seed 0 in
  rm_rf dir0;
  let ok0 = verify seed rep0 in
  let seeds = ref 0 and failed = ref 0 and k = ref 1 in
  let bad_slices = ref 0 in
  Meter.close meter;
  let t0 = now () in
  (* one window per slice *)
  while now () -. t0 < seconds || Meter.windows meter = 0 do
    let dir, _, busy, rep = run_slice seed !k in
    rm_rf dir;
    Meter.record meter ~ops:slice busy;
    Meter.close meter;
    let t = rep.Camp.totals in
    if t.Camp.n_quarantined = 0 && t.Camp.n_seeds <> slice then begin
      incr bad_slices;
      wrong "campaign: slice %d classified %d of %d seeds" !k t.Camp.n_seeds slice
    end;
    failed :=
      !failed + t.Camp.n_unknown
      + List.fold_left
          (fun a (s : Harness.Manifest.shard) -> a + (s.Harness.Manifest.hi - s.Harness.Manifest.lo))
          0 rep.Camp.quarantined;
    seeds := !seeds + slice;
    incr k
  done;
  let wall = now () -. t0 in
  rm_rf setup_dir;
  (* byte-reproducibility: the first slice again *)
  let dir0', _, _, rep0' = run_slice seed 0 in
  rm_rf dir0';
  let d0 = report_digest rep0 and d0' = report_digest rep0' in
  if d0 <> d0' then wrong "campaign: slice 0 report digest %s, then %s" d0 d0';
  let metrics, notes =
    metered
      ~what:
        (Printf.sprintf "reference time of Campaign.run over %d seeds (orchestrator and %d workers)"
           slice jobs)
      ~wall meter ~attempted:!seeds ~failed:!failed
  in
  {
    correct = ok0 && d0 = d0' && !bad_slices = 0;
    attempted = !seeds;
    failed = !failed;
    metrics;
    notes =
      ("ops", "seeds classified: ops_per_ref_s is seeds_per_s")
      :: ("report_digest", d0)
      :: ("tests", Printf.sprintf "%d of %d seeds of slice 0 realise a test" rep0.Camp.totals.Camp.n_tests slice)
      :: notes;
  }

let trace ~seed ~seconds =
  let tr = Btrace.create () and cnt = Replica.counts () in
  let passes = ref 0 and wall_us = ref 0. and overheads = ref [] in
  let realised = ref 0 and visited = ref 0 and run_us = ref 0. and per_seed_us = ref 0. in
  let correct = ref true in
  Obs.reset ();
  let t_start = now () in
  while !passes = 0 || now () -. t_start < seconds do
    Obs.set_enabled false;
    let u0 = now () in
    let expected = counts_of (replay seed) in
    let untraced = now () -. u0 in
    Obs.set_enabled true;
    let w0 = now () in
    let cat = Btrace.span tr "cat.compile" Wl_corpus.cat_model in
    let model name =
      match name with
      | "lk" -> { Replica.layer = "lkmm"; oracle = Lkmm.oracle }
      | "cat" -> cat
      | _ -> { Replica.layer = "c11"; oracle = c11_oracle }
    in
    let column name t =
      Btrace.span tr ("campaign.column." ^ name) (fun () ->
          verdict_str (Replica.check tr cnt (model name) t))
    in
    let lo = slice_lo seed 0 in
    let cells =
      List.filter_map
        (fun s ->
          Btrace.span ~emit:false tr "campaign.seed" (fun () ->
              incr visited;
              match
                Btrace.span ~emit:false tr "diygen.gen" (fun () ->
                    Diygen.test_of_seed ~vocabulary:vocabulary ~size s)
              with
              | None -> None
              | Some t ->
                  incr realised;
                  let c11 = if Models.C11.applicable t then column "c11" t else "-" in
                  let v = [ ("lk", column "lk" t); ("cat", column "cat" t); ("c11", c11) ] in
                  Some (v @ [ ("hw:" ^ arch, Btrace.span tr "hwsim.run" (fun () -> hwsim t s)) ])))
        (List.init slice (fun i -> lo + i))
    in
    if counts_of cells <> expected then begin
      correct := false;
      wrong "campaign (traced): replayed counts differ from the budgeted replay"
    end;
    let seed_work = Btrace.total_us tr "campaign.seed" in
    (* the orchestrator and its forked workers run untraced, as in
       production: only the bench's span around the call is kept *)
    Obs.set_enabled false;
    let dir, wall, _, rep =
      Btrace.span tr "campaign.run" (fun () -> run_slice seed 0)
    in
    Obs.set_enabled true;
    if rep.Camp.counts <> expected then begin
      correct := false;
      wrong "campaign (traced): report disagrees with the replay"
    end;
    ignore
      (Btrace.span tr "campaign.mine" (fun () ->
           match Harness.Manifest.load (Camp.manifest_path dir) with
           | Ok m -> Camp.mine m
           | Error e -> failwith ("campaign: " ^ e)));
    rm_rf dir;
    run_us := !run_us +. (1e6 *. wall);
    per_seed_us := seed_work;
    let traced = now () -. w0 in
    wall_us := !wall_us +. (1e6 *. traced);
    overheads := (traced -. untraced) :: !overheads;
    incr passes
  done;
  Obs.set_enabled false;
  let trace_base = Btrace.export ~workload:"campaign" ~seed in
  let per x = x /. float_of_int !passes in
  let cov, cov_ok =
    Spec.coverage tr ~wall_us:!wall_us ~passes:!passes ~overhead_s:(median !overheads)
  in
  if not cov_ok then wrong "spans cover %.3f of the traced wall time" (List.assoc "trace.coverage" cov);
  {
    correct = !correct && cov_ok;
    attempted = !visited;
    failed = 0;
    metrics =
      Spec.complete_layers
        (Replica.layer_metrics tr cnt ~passes:!passes
        @ [
            ("diygen.gen_us", per (Btrace.total_us tr "diygen.gen"));
            ("diygen.realised_ratio", float_of_int !realised /. float_of_int (max 1 !visited));
            ("campaign.check_lk_us", per (Btrace.total_us tr "campaign.column.lk"));
            ("campaign.check_cat_us", per (Btrace.total_us tr "campaign.column.cat"));
            ("campaign.check_c11_us", per (Btrace.total_us tr "campaign.column.c11"));
            ("hwsim.run_us", per (Btrace.total_us tr "hwsim.run"));
            ("campaign.mine_us", per (Btrace.total_us tr "campaign.mine"));
            ( "campaign.orchestration_us",
              per !run_us -. (per !per_seed_us /. float_of_int jobs) );
          ]
        @ cov);
    notes =
      [
        ("passes", string_of_int !passes);
        ( "orchestration",
          Printf.sprintf "Campaign.run wall minus the replayed per-seed work / %d jobs" jobs );
        ("trace", trace_base ^ ".{json,jsonl}");
      ];
  }
