(* The metric catalogue, mirrored by BENCHMARK.json: every run prints
   every end-to-end metric (untraced) or every per-layer metric
   (traced), whatever the workload.  A per-layer metric of a layer the
   workload never reaches reads 0 — see README.md for which layer each
   workload reaches. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_ref_s", "1/s");
    ("op_ref_p50_ms", "ms");
    ("op_ref_tail_ms", "ms");
    ("ok_share", "share");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    (* enumerative checking: corpus, campaign *)
    ("litmus.parse_us", "us");
    ("exec.sem_us", "us");
    ("exec.structures", "count");
    ("exec.events", "count");
    ("exec.enumerate_us", "us");
    ("exec.candidates", "count");
    ("exec.prefilter_us", "us");
    ("exec.prefiltered", "count");
    ("exec.prefilter_reject_ratio", "ratio");
    ("lkmm.model_us", "us");
    ("lkmm.consistent", "count");
    ("cat.model_us", "us");
    ("cat.compile_us", "us");
    ("c11.model_us", "us");
    ("check.total_us", "us");
    ("check.unattributed_us", "us");
    ("check.batch_occupancy", "count");
    (* symbolic checking: sat-large *)
    ("solve.total_us", "us");
    ("solve.revalidate_us", "us");
    ("solve.structures", "count");
    ("solve.unattributed_us", "us");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    (* campaigns: campaign *)
    ("diygen.gen_us", "us");
    ("diygen.realised_ratio", "ratio");
    ("campaign.check_lk_us", "us");
    ("campaign.check_cat_us", "us");
    ("campaign.check_c11_us", "us");
    ("hwsim.run_us", "us");
    ("campaign.mine_us", "us");
    ("campaign.orchestration_us", "us");
    (* the trace itself *)
    ("trace.wall_us", "us");
    ("trace.outside_us", "us");
    ("trace.coverage", "ratio");
    ("trace.overhead_s", "s");
  ]

(* A traced run fails when its spans cover less (or more) of the traced
   wall time than this share. *)
let coverage_tolerance = 0.10

(* Fill in the per-layer metrics a workload does not reach with 0. *)
let complete_layers ms =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("lkbench: per-layer metric outside the catalogue: " ^ name))
    ms;
  List.map
    (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name ms)))
    per_layer

(* Coverage accounting shared by every traced workload: [wall_us] is the
   total wall time of [passes] traced replays, [tr] their spans.  Like
   every per-layer time, the figures are per replay pass.  Returns the
   metrics and whether the spans account for the wall time within
   tolerance. *)
let coverage tr ~wall_us ~passes ~overhead_s =
  let covered = Btrace.attributed_us tr in
  let ratio = if wall_us > 0. then covered /. wall_us else 0. in
  let per x = x /. float_of_int (max 1 passes) in
  ( [
      ("trace.wall_us", per wall_us);
      ("trace.outside_us", per (wall_us -. covered));
      ("trace.coverage", ratio);
      ("trace.overhead_s", overhead_s);
    ],
    Float.abs (1. -. ratio) <= coverage_tolerance )
