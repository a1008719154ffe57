(** Campaign-scale sweeps: fault-tolerant sharded orchestration over
    10^5+ generated tests, with differential mining.

    A campaign partitions a seed interval into shards — deterministic
    (generator config, seed range) pairs whose tests are regenerated on
    demand inside forked workers ({!Diygen.test_of_seed}), never
    materialised as files.  Shard state lives in a {!Manifest} journal;
    per-seed verdicts in per-shard journals that are compacted into the
    manifest (and deleted) as shards finish.  A [kill -9] of the
    orchestrator at any point is recoverable with {!run} on the same
    directory, and — because classification is a pure function of
    (config, seed) when the budgets carry no wall-clock timeout — the
    resumed campaign's mined report is byte-identical to an
    uninterrupted run's.

    Failure ladder: a shard is one {!Supervisor} job, whose retry runs
    the seed the lost worker died on under the reduced budget; a shard
    lost twice is bisected down to the poison seed, whose singleton
    shard is quarantined when lost twice — reported, never dropped. *)

type config = {
  dir : string;  (** manifest, shard journals and report live here *)
  size : int;  (** cycle length *)
  seed_lo : int;  (** inclusive *)
  seed_hi : int;  (** exclusive *)
  shard_size : int;  (** seeds per initial shard *)
  jobs : int;  (** concurrent shard workers *)
  models : string list;  (** subset of ["lk"], ["cat"], ["c11"] *)
  archs : string list;  (** hwsim profiles, by {!Hwsim.Arch.find} name *)
  hw_runs : int;  (** operational runs per test per arch *)
  limits : Exec.Budget.limits;  (** every seed but the one below *)
  reduced : Exec.Budget.limits;  (** a retry's first seed *)
  lease_timeout : float;  (** seconds before an attempt is SIGKILLed *)
  max_rows : int;  (** disagreement rows kept per shard *)
  explain : bool;  (** attach forensics to mined Forbid-side patterns *)
  backend : Exec.Check.backend;
      (** engine for the axiomatic columns ({!Exec.Oracle.run});
          verdicts are engine-independent, so chaos equality holds
          across backends *)
  poison : int list;  (** chaos hook: worker exits 42 at these seeds *)
  wedge : int list;  (** chaos hook: worker hangs at these seeds *)
  flight : bool;
      (** arm the crash flight recorder in every forked worker
          ({!Obs.flight_start} on [dir/flight-<pid>.jsonl]): each seed
          opens a [campaign.seed] span and forces a checkpoint, so a
          poisoned, wedged or crashed worker leaves a post-mortem
          naming the victim seed ([obs_report --postmortem]) *)
  metrics_interval : float;
      (** seconds between [lkmetrics-1] snapshots appended to
          [dir/metrics.jsonl] (plus one final snapshot); the miner
          never reads the file, so report byte-equality is preserved *)
  log : string -> unit;
}

val default : config
(** Deterministic defaults: candidate/event caps, no wall-clock
    timeout. *)

val spec_of_config : config -> Manifest.spec
val manifest_path : string -> string

(** {1 Mining} *)

type exemplar = { seed : int; test : string; verdicts : (string * string) list }

type pattern = {
  kind : string;
      (** ["native-vs-cat"], ["hw-unsound:<arch>"] or ["lk-vs-c11"] *)
  severity : int;  (** 0 most severe *)
  key : string;  (** verdict signature, e.g. ["lk=Forbid c11=Allow"] *)
  count : int;
  exemplars : exemplar list;  (** capped at 3, seed order *)
  explanations : string list;  (** with [explain]: native forensics *)
}

type totals = {
  n_shards : int;
  n_quarantined : int;
  n_seeds : int;  (** seeds classified in completed shards *)
  n_tests : int;
  n_unknown : int;
  rows_dropped : int;
}

type report = {
  spec : Manifest.spec;
  totals : totals;
  counts : (string * int) list;  (** ["lk:Allow"] -> n, sorted *)
  quarantined : Manifest.shard list;  (** sorted by range *)
  patterns : pattern list;  (** most severe first, then count desc *)
}

val mine : ?explain:bool -> Manifest.t -> report
(** Fold a manifest's completed shards into the discrepancy report.
    Fully sorted and time-free: equal campaigns mine to byte-equal
    reports. *)

val report_to_json : report -> string
(** Validated by [ci/campaign.schema.json]. *)

val report_to_text : report -> string

(** {1 Orchestration} *)

val run : config -> (report, string) result
(** Run (or resume) the campaign in [config.dir] to completion and mine
    it.  [Error] only on a spec mismatch against an existing
    manifest. *)

(** {1 Exposed for tests} *)

(** One journalled per-seed result: [test] is [None] when the seed's
    walk realised nothing. *)
type cell = { test : string option; v : (string * string) list; time : float }

val kinds_of_verdicts : (string * string) list -> string list
val severity_of_kind : string -> int
