(* Benchmark for verdict forensics: the cost of the --explain path on
   the BENCH_rel corpus battery, off and on.  Writes BENCH_explain.json.

     dune exec tools/bench_explain.exe [-- OUT.json]
     dune exec tools/bench_explain.exe -- --smoke

   Off is the case that matters: with no explainer, the checking loop
   must not retain counterexamples or touch the forensics code at all —
   the acceptance gate is <2% overhead relative to the committed
   BENCH_obs baseline for the very same battery (native LK + cached cat
   LK, best-of-3).  On-cost is recorded for documentation: the explainer
   runs once per Forbid verdict (cycle extraction + provenance
   decomposition + validation on a single candidate), never per
   candidate.

   Smoke mode (for CI) re-measures the reduced slice and fails if
   (a) the explain-off battery costs more than 2x the committed
   BENCH_obs smoke baseline — coarse, insensitive to runner speed —
   or (b) turning the explainer on costs more than 3x off on the same
   slice, which would mean forensics work leaked out of the
   Forbid-verdict path into the per-candidate loop. *)

module J = Harness.Journal.Json

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

(* The same battery BENCH_rel and BENCH_obs time: native LK + cached
   cat LK per test; [explain] adds the explainers. *)
let battery ~explain tests =
  let model = Lazy.force lk_cat in
  let cat = Cat.to_oracle ~name:"LK(cat)" model in
  let native_ex = if explain then Some Lkmm.Explain.explainer else None in
  let cat_ex = if explain then Some (Cat.explainer model) else None in
  best_of 3 (fun () ->
      List.iter
        (fun t ->
          ignore
            (Sys.opaque_identity
               (Exec.Check.run ?explainer:native_ex (module Lkmm) t));
          ignore
            (Sys.opaque_identity
               (Exec.Oracle.run ~backend:Exec.Check.Enum ?explainer:cat_ex cat
                  t)))
        tests)

(* The committed BENCH_obs numbers for the same battery (the pre-forensics
   baseline the off case is held to). *)
let bench_obs_baseline () =
  match
    List.find_opt Sys.file_exists
      [ "BENCH_obs.json"; "../BENCH_obs.json"; "../../../BENCH_obs.json" ]
  with
  | None -> None
  | Some path -> (
      match J.of_string (read_file path) with
      | exception J.Malformed _ -> None
      | j ->
          let num obj k = Option.bind (J.mem k obj) J.num in
          let section k = J.mem k j in
          Option.bind (section "smoke") (fun s ->
              Option.bind (num s "disabled_s") (fun smoke ->
                  Option.bind (section "corpus") (fun c ->
                      Option.map
                        (fun full -> (full, smoke))
                        (num c "disabled_s")))))

let smoke_stride = 5

let smoke () =
  let tests = load_corpus ~stride:smoke_stride () in
  let off_s = battery ~explain:false tests in
  let on_s = battery ~explain:true tests in
  Printf.printf
    "bench_explain smoke: %d tests, off %.4f s, on %.4f s (on/off %.3f)\n"
    (List.length tests) off_s on_s (on_s /. off_s);
  (match bench_obs_baseline () with
  | Some (_, smoke_baseline) ->
      Printf.printf "  committed BENCH_obs smoke baseline: %.4f s (x%.2f)\n"
        smoke_baseline (off_s /. smoke_baseline);
      if off_s > 2. *. smoke_baseline then begin
        prerr_endline
          "bench_explain: FAIL: explain-off battery costs more than 2x the \
           committed BENCH_obs smoke baseline";
        exit 1
      end
  | None -> prerr_endline "bench_explain: BENCH_obs.json not found; skipping \
                           baseline gate");
  if on_s > 3. *. off_s then begin
    prerr_endline
      "bench_explain: FAIL: enabling the explainer costs more than 3x on the \
       corpus slice (forensics leaked into the per-candidate loop?)";
    exit 1
  end

let full out =
  let tests = load_corpus () in
  let off_s = battery ~explain:false tests in
  let on_s = battery ~explain:true tests in
  let sm_tests = load_corpus ~stride:smoke_stride () in
  let sm_off_s = battery ~explain:false sm_tests in
  let sm_on_s = battery ~explain:true sm_tests in
  let off_vs_obs =
    match bench_obs_baseline () with
    | Some (full_baseline, _) ->
        Printf.sprintf "%.3f" (off_s /. full_baseline)
    | None -> "null"
  in
  let json =
    Printf.sprintf
      {|{
  "description": "cost of verdict forensics on the BENCH_rel corpus battery (native LK + cached cat LK per test, best-of-3): off = Exec.Check.run without an explainer (must match the pre-forensics BENCH_obs baseline within 2%%); on = native + cat explainers, which run once per Forbid verdict (cycle extraction, provenance decomposition, validation), never per candidate",
  "corpus": {
    "n_tests": %d,
    "off_s": %.4f,
    "on_s": %.4f,
    "on_overhead_ratio": %.3f,
    "off_vs_bench_obs_disabled_ratio": %s
  },
  "smoke": { "stride": %d, "off_s": %.4f, "on_s": %.4f, "ratio": %.3f },
  "gates": {
    "off_vs_bench_obs": "off_s vs the committed BENCH_obs corpus disabled_s for the same battery on the same machine; must be within 2%%",
    "smoke_off_vs_bench_obs_max": 2.0,
    "smoke_on_vs_off_max": 3.0
  }
}
|}
      (List.length tests) off_s on_s (on_s /. off_s) off_vs_obs smoke_stride
      sm_off_s sm_on_s
      (sm_on_s /. sm_off_s)
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  print_string json

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ :: out :: _ -> full out
  | _ -> full "BENCH_explain.json"
