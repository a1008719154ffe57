(* Benchmark for the observability layer: the cost of the collector on
   the BENCH_rel corpus battery, disabled and enabled.  Writes
   BENCH_obs.json.

     dune exec tools/bench_obs.exe [-- OUT.json]
     dune exec tools/bench_obs.exe -- --smoke

   Disabled is the case that matters: every probe in the checking path
   compiles to a load of [Obs.on] and a branch, and the acceptance gate
   is <1% overhead on the full corpus battery (native LK + cached cat
   LK, best-of-3) relative to the same battery with the probes' code
   paths untouched — measured against the committed BENCH_rel numbers.
   Enabled overhead (spans + counters + per-candidate histograms) is
   recorded for documentation, not gated: tracing a run is an explicit
   opt-in.

   Smoke mode (for CI) re-measures the battery on the reduced slice and
   fails if enabling the collector costs more than 25% on the same
   slice — a coarse guard that a probe did not land on a per-word inner
   loop. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let best_of k f =
  let best = ref infinity in
  for _ = 1 to k do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Unix.gettimeofday () in
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  !best

let corpus_dir =
  List.find_opt Sys.file_exists [ "corpus"; "../corpus"; "../../../corpus" ]

let load_corpus ?(stride = 1) () =
  match corpus_dir with
  | None -> failwith "corpus directory not found"
  | Some dir ->
      read_file (Filename.concat dir "MANIFEST")
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.filteri (fun i _ -> i mod stride = 0)
      |> List.map (fun line ->
             let file = List.hd (String.split_on_char ' ' line) in
             Litmus.parse (read_file (Filename.concat dir file)))

let lk_cat = lazy (Lazy.force Cat.lk)

(* The same battery BENCH_rel times: native LK + cached cat LK per test. *)
let battery tests =
  let cat = Cat.to_oracle ~name:"LK(cat)" (Lazy.force lk_cat) in
  best_of 3 (fun () ->
      List.iter
        (fun t ->
          ignore (Sys.opaque_identity (Exec.Check.run (module Lkmm) t));
          ignore
            (Sys.opaque_identity
               (Exec.Oracle.run ~backend:Exec.Check.Enum cat t)))
        tests)

let timed_pair tests =
  Obs.set_enabled false;
  let disabled_s = battery tests in
  Obs.set_enabled true;
  Obs.reset ();
  let enabled_s = battery tests in
  let spans = List.length (Obs.spans ()) + Obs.dropped () in
  Obs.set_enabled false;
  Obs.reset ();
  (disabled_s, enabled_s, spans)

let smoke_stride = 5

let smoke () =
  let tests = load_corpus ~stride:smoke_stride () in
  let disabled_s, enabled_s, _ = timed_pair tests in
  let ratio = enabled_s /. disabled_s in
  Printf.printf
    "bench_obs smoke: %d tests, disabled %.4f s, enabled %.4f s (ratio %.3f)\n"
    (List.length tests) disabled_s enabled_s ratio;
  if ratio > 1.25 then begin
    prerr_endline
      "bench_obs: FAIL: enabling the collector costs more than 25% on the \
       corpus slice";
    exit 1
  end

let full out =
  let tests = load_corpus () in
  let disabled_s, enabled_s, spans = timed_pair tests in
  let sm_tests = load_corpus ~stride:smoke_stride () in
  let sm_disabled_s, sm_enabled_s, _ = timed_pair sm_tests in
  let json =
    Printf.sprintf
      {|{
  "description": "cost of the lib/obs collector on the BENCH_rel corpus battery (native LK + cached cat LK per test, best-of-3): disabled = every probe is a load of Obs.on and a branch; enabled = spans + counters + per-candidate prefilter/model timing histograms into the ring buffer",
  "corpus": {
    "n_tests": %d,
    "disabled_s": %.4f,
    "enabled_s": %.4f,
    "enabled_overhead_ratio": %.3f,
    "spans_recorded": %d
  },
  "smoke": { "stride": %d, "disabled_s": %.4f, "enabled_s": %.4f, "ratio": %.3f },
  "gates": {
    "disabled_vs_bench_rel": "compare corpus.disabled_s against BENCH_rel.json corpus times for the same battery; must be within 1%%",
    "enabled_smoke_ratio_max": 1.25
  }
}
|}
      (List.length tests) disabled_s enabled_s
      (enabled_s /. disabled_s)
      spans smoke_stride sm_disabled_s sm_enabled_s
      (sm_enabled_s /. sm_disabled_s)
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  print_string json

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ :: out :: _ -> full out
  | _ -> full "BENCH_obs.json"
