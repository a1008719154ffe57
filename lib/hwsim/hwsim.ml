(* Operational hardware simulators — the repository's stand-in for the
   paper's hardware testbed and klitmus kernel-module runs (Section 5).

   - {!Arch}: per-architecture profiles (X86/TSO, ARMv7, ARMv8, Power8,
     Alpha, SC);
   - {!Machine}: the randomised operational machine over {!Kir} programs;
   - this module: running litmus tests many times and histogramming
     outcomes, in Table 5's observed/total format. *)

module Arch = Arch
module Machine = Machine

type stats = {
  arch : string;
  total : int; (* completed runs *)
  matched : int; (* runs whose final state satisfies the condition *)
  outcomes : (Exec.outcome * int) list; (* histogram *)
}

let eval_cond (test : Litmus.Ast.t) (r : Machine.run_result) =
  Exec.holds test (function
    | `Reg (tid, reg) -> Exec.final_reg r.Machine.regs tid reg
    | `Mem x -> Option.value ~default:0 (List.assoc_opt x r.Machine.mem))

(* The seeded runs of [test] that {!run_test} and {!observes} share:
   [runs] runs of one compiled program, drawing from one RNG seeded by
   [seed], each completed run's observables (in {!Exec.observables}
   order) handed to [f].  Aborted runs (step cap) are skipped.  The loop
   ends early at the first run for which [f] returns true, and says
   whether it did. *)
let runs_until (arch : Arch.t) ~runs ~seed (test : Litmus.Ast.t) f =
  Obs.with_span ~item:test.name "hwsim.run" (fun () ->
      let prog = Machine.compile (Kir.of_litmus test) in
      let observe = Machine.observe prog (Exec.observables test) in
      let rng = Random.State.make [| seed |] in
      let rec go i =
        i < runs
        && ((match Machine.run ~rng arch prog with
            | None -> false
            | Some st -> f (observe st))
           || go (i + 1))
      in
      go 0)

(* [test]'s condition over a run's observables. *)
let satisfied (test : Litmus.Ast.t) =
  let index = List.mapi (fun i o -> (o, i)) (Exec.observables test) in
  fun k -> Exec.holds test (fun o -> k.(List.assoc o index))

(* [run_test arch ~runs ~seed test] executes [test] [runs] times on the
   simulated architecture and reports how often the condition matched —
   one cell of Table 5.  Runs are histogrammed on the observables' values;
   each distinct one becomes an {!Exec.outcome} (comparable with model
   verdicts) and is checked against the condition once. *)
let run_test (arch : Arch.t) ?(runs = 10_000) ?(seed = 42)
    (test : Litmus.Ast.t) =
  let hist = Hashtbl.create 16 in
  ignore
    (runs_until arch ~runs ~seed test (fun k ->
         Hashtbl.replace hist k (1 + Option.value ~default:0 (Hashtbl.find_opt hist k));
         false));
  let names = List.map Exec.observable_name (Exec.observables test) in
  let count p = Hashtbl.fold (fun k n acc -> if p k then acc + n else acc) hist 0 in
  {
    arch = arch.Arch.name;
    total = count (Fun.const true);
    matched = count (satisfied test);
    outcomes =
      List.sort compare
        (Hashtbl.fold (fun k n acc -> (List.combine names (Array.to_list k), n) :: acc) hist []);
  }

(* [observes arch ~runs ~seed test]: does some run of [run_test arch
   ~runs ~seed test] satisfy the condition?  The same seeded runs in the
   same draw order, stopping at the first completed run whose observables
   satisfy it; so it is [(run_test arch ~runs ~seed test).matched > 0]
   whenever no run raises.  A run after the first observing one is never
   made, so neither is any error it would raise. *)
let observes (arch : Arch.t) ~runs ~seed (test : Litmus.Ast.t) =
  runs_until arch ~runs ~seed test (satisfied test)

(* [run_program arch ~runs ~seed prog] histograms the raw final states of an
   arbitrary IR program (used for the Figure 15 / Theorem 2 study). *)
let run_program (arch : Arch.t) ?(runs = 1_000) ?(seed = 42)
    (prog : Kir.program) =
  Obs.with_span ~item:prog.Kir.name "hwsim.run" (fun () ->
      let p = Machine.compile prog in
      let rng = Random.State.make [| seed |] in
      let results = ref [] and aborted = ref 0 in
      for _ = 1 to runs do
        match Machine.run ~rng arch p with
        | None -> incr aborted
        | Some st -> results := Machine.result st :: !results
      done;
      (List.rev !results, !aborted))

(* ------------------------------------------------------------------ *)
(* Retry-until-stable sampling                                         *)
(* ------------------------------------------------------------------ *)

(* Randomised runs face a sampling question the model checker does not:
   is a weak outcome genuinely unobservable on this architecture, or did
   we just not run enough iterations?  [run_test_stable] re-runs a test
   in batches with fresh seeds until the outcome histogram converges —
   no new outcome appears and every per-outcome frequency moves by less
   than [tol] — for [stable_batches] consecutive batches, or the
   [max_batches] retry cap hits. *)
type stable_stats = {
  stats : stats; (* cumulative over all batches *)
  batches : int; (* batches actually run *)
  converged : bool; (* false = retry cap hit before convergence *)
  seeds : int list;
      (* the per-batch seeds actually used, in batch order — the exact
         seed set to replay a non-converging run *)
}

let merge_stats a b =
  let hist = Hashtbl.create 16 in
  List.iter
    (fun (o, n) ->
      Hashtbl.replace hist o (n + Option.value ~default:0 (Hashtbl.find_opt hist o)))
    (a.outcomes @ b.outcomes);
  {
    arch = a.arch;
    total = a.total + b.total;
    matched = a.matched + b.matched;
    outcomes =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []);
  }

let frequencies (s : stats) =
  let total = max 1 s.total in
  List.map (fun (o, n) -> (o, float_of_int n /. float_of_int total)) s.outcomes

(* One batch is "stable" w.r.t. the previous cumulative histogram when it
   introduces no new outcome and shifts no frequency by more than [tol]. *)
let batch_stable ~tol before after =
  let f_before = frequencies before and f_after = frequencies after in
  List.for_all
    (fun (o, f) ->
      match List.assoc_opt o f_before with
      | None -> false (* a new outcome appeared: not converged *)
      | Some f' -> Float.abs (f -. f') <= tol)
    f_after

let run_test_stable (arch : Arch.t) ?(batch = 2_000) ?(max_batches = 25)
    ?(stable_batches = 3) ?(tol = 0.01) ?(seed = 42) (test : Litmus.Ast.t) =
  let seeds_used i = List.init i (fun k -> seed + k) in
  let rec go acc streak i =
    if streak >= stable_batches then
      { stats = acc; batches = i; converged = true; seeds = seeds_used i }
    else if i >= max_batches then
      { stats = acc; batches = i; converged = false; seeds = seeds_used i }
    else
      let b = run_test arch ~runs:batch ~seed:(seed + i) test in
      let acc' = merge_stats acc b in
      let streak' = if batch_stable ~tol acc acc' then streak + 1 else 0 in
      go acc' streak' (i + 1)
  in
  let first = run_test arch ~runs:batch ~seed test in
  go first 0 1

(* ------------------------------------------------------------------ *)
(* Soundness against a model                                           *)
(* ------------------------------------------------------------------ *)

(* Soundness against a model: every outcome the simulator produced must be
   allowed by the model (the paper's Table 5 claim).  Returns offending
   outcomes, empty = sound.  The model comes as an {!Exec.Oracle.t},
   whose enumerator lists the allowed outcomes. *)
let unsound_outcomes ?budget (oracle : Exec.Oracle.t) (test : Litmus.Ast.t)
    (s : stats) =
  let allowed = Exec.Oracle.allowed_outcomes ?budget oracle test in
  List.filter_map
    (fun (o, n) -> if List.mem o allowed then None else Some (o, n))
    s.outcomes

(* Budget-aware soundness verdict: [Soundness_unknown] when the model's
   outcome enumeration blew its budget — distinct from both "sound" and
   "unsound", so sweeps can report partial coverage honestly. *)
type soundness =
  | Sound
  | Unsound of (Exec.outcome * int) list
  | Soundness_unknown of Exec.Budget.reason

let soundness ?limits oracle test s =
  let budget = Option.map Exec.Budget.start limits in
  match unsound_outcomes ?budget oracle test s with
  | [] -> Sound
  | bad -> Unsound bad
  | exception Exec.Budget.Exceeded r -> Soundness_unknown r
