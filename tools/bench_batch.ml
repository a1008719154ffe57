(* Benchmarks for the batched bit-plane candidate-evaluation path: the
   Rel.Batch bit-plane kernel in the native LKMM axioms and the cat
   interpreter's replay, with the batched coherence prefilter, over the
   full-corpus battery, against both a freshly measured scalar run and
   the committed BENCH_rel baseline.
   Writes BENCH_batch.json.

     dune exec tools/bench_batch.exe [-- OUT.json]
     dune exec tools/bench_batch.exe -- --smoke [BASELINE.json]

   Smoke mode (for CI) reruns a reduced corpus slice — every 5th test,
   batched native LK and batched cat LK — and exits 1 if the slice
   takes more than twice the committed baseline's [smoke.total_s].

   The scalar reference numbers are re-measured in the same process
   (same machine, same best-of-3 battery loop), so the comparison is
   apples-to-apples; the committed BENCH_rel corpus numbers are
   also quoted so the cross-PR speedup claim stays attached to the
   measurement it came from. *)

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

(* ------------------------------------------------------------------ *)
(* Corpus battery                                                      *)
(* ------------------------------------------------------------------ *)

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

let battery tests f =
  best_of 3 (fun () ->
      List.iter (fun t -> ignore (Sys.opaque_identity (f t))) tests)

let lk_cat = lazy (Lazy.force Cat.lk)

(* Scalar against batched evaluation, for the native and the cat path;
   the batched configurations are the default production path. *)

type corpus_times = {
  native_scalar : float;
  native_batch : float;
  cat_scalar : float;
  cat_batch : float;
}

let cat_oracle () = Cat.to_oracle ~name:"LK(cat)" (Lazy.force lk_cat)

let corpus_configs tests =
  let on backend oracle t = Exec.Oracle.run ~backend oracle t in
  {
    native_scalar = battery tests (on Exec.Check.Enum Lkmm.oracle);
    native_batch = battery tests (on Exec.Check.Batch Lkmm.oracle);
    cat_scalar = battery tests (on Exec.Check.Enum (cat_oracle ()));
    cat_batch = battery tests (on Exec.Check.Batch (cat_oracle ()));
  }

(* ------------------------------------------------------------------ *)
(* Smoke mode                                                          *)
(* ------------------------------------------------------------------ *)

let smoke_stride = 5

let run_smoke tests =
  let cat = cat_oracle () in
  battery tests (fun t ->
      ignore (Sys.opaque_identity (Exec.Oracle.run Lkmm.oracle t));
      Exec.Oracle.run cat t)

(* Pull a float field out of the committed baseline without a JSON
   dependency: the file is machine-written, so a textual scan is safe. *)
let baseline_field file key =
  let s = read_file file in
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length s then None
    else if String.sub s i (String.length pat) = pat then
      Some (i + String.length pat)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = ref i in
      while
        !j < String.length s
        && (match s.[!j] with
           | '0' .. '9' | '.' | ' ' | '-' | 'e' -> true
           | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.trim (String.sub s i (!j - i)))

let smoke baseline_file =
  let tests = load_corpus ~stride:smoke_stride () in
  let total = run_smoke tests in
  match baseline_field baseline_file "total_s" with
  | None ->
      Printf.eprintf "bench_batch: no smoke baseline in %s\n" baseline_file;
      exit 2
  | Some base ->
      Printf.printf
        "bench_batch smoke: %d tests, %.4f s (baseline %.4f s, ratio %.2f)\n"
        (List.length tests) total base (total /. base);
      if total > 2.0 *. base then begin
        prerr_endline
          "bench_batch: FAIL: smoke slice more than 2x the baseline";
        exit 1
      end

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let bench_rel_file = "BENCH_rel.json"

let full out =
  let tests = load_corpus () in
  let c = corpus_configs tests in
  let smoke_total = run_smoke (load_corpus ~stride:smoke_stride ()) in
  let rel_native =
    Option.value ~default:Float.nan
      (baseline_field bench_rel_file "prefilter_on_s")
  and rel_cat =
    Option.value ~default:Float.nan
      (baseline_field bench_rel_file "cache_on_s")
  in
  let json =
    Printf.sprintf
      {|{
  "description": "batched bit-plane candidate evaluation (Rel.Batch) against the scalar path over best-of-3 full-corpus battery passes; scalar reference re-measured in-process, BENCH_rel corpus numbers quoted for the cross-PR comparison",
  "corpus": {
    "n_tests": %d,
    "bench_rel_baseline": { "native_lk_s": %.4f, "cat_lk_s": %.4f },
    "native_lk": { "scalar_s": %.4f, "batch_s": %.4f },
    "cat_lk": { "scalar_s": %.4f, "batch_s": %.4f },
    "speedup_native_batch_vs_scalar": %.2f,
    "speedup_cat_batch_vs_scalar": %.2f,
    "speedup_native_vs_bench_rel": %.2f,
    "speedup_cat_vs_bench_rel": %.2f
  },
  "smoke": { "stride": %d, "total_s": %.4f },
  "notes": "native scalar %.4fs -> %.4fs is the bit-plane evaluation of the native axioms over up to 63 candidates per pass, including the batched coherence prefilter; cat %.4fs -> %.4fs is the word-parallel run_with_prefix replay.  Speedups vs BENCH_rel compare the batched default against that file's committed corpus numbers (same machine class, earlier commit)."
}
|}
      (List.length tests) rel_native rel_cat c.native_scalar c.native_batch
      c.cat_scalar c.cat_batch
      (c.native_scalar /. c.native_batch)
      (c.cat_scalar /. c.cat_batch)
      (rel_native /. c.native_batch)
      (rel_cat /. c.cat_batch) smoke_stride smoke_total c.native_scalar
      c.native_batch c.cat_scalar c.cat_batch
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  print_string json;
  if
    c.native_scalar /. c.native_batch < 1.5
    && c.cat_scalar /. c.cat_batch < 1.5
  then
    prerr_endline
      "bench_batch: WARNING: batched speedup below 1.5x on both paths"

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: rest ->
      smoke (match rest with b :: _ -> b | [] -> "BENCH_batch.json")
  | _ :: out :: _ -> full out
  | _ -> full "BENCH_batch.json"
