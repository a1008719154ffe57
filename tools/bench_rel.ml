(* Benchmarks for the dense relation kernel and the enumeration-path
   optimisations: microbenchmarks of the bitset kernel against the
   retained pair-set reference, and the full-corpus battery under the
   native and cat-interpreted LK models on the scalar path.  Writes
   BENCH_rel.json.

     dune exec tools/bench_rel.exe [-- OUT.json]
     dune exec tools/bench_rel.exe -- --smoke [BASELINE.json]

   Smoke mode (for CI) reruns a reduced corpus slice — every 5th test,
   native LK and cached cat LK — and exits 1 if the slice takes more
   than twice the committed baseline's [smoke.total_s]: a cheap guard
   against performance regressions on the hot path.

   The "before" numbers are the seed commit (5f37219, pair-set kernel,
   materialised enumeration, no prefilter, no prefix cache) measured on
   the same machine with the same best-of-3 battery loop; they are
   recorded as constants below so the speedup the PR claims stays
   attached to the measurement it came from. *)

let seed_commit = "5f37219"
let seed_native_s = 0.1522
let seed_cat_s = 0.2310

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

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
(* Microbenchmarks: kernel vs pair-set reference                       *)
(* ------------------------------------------------------------------ *)

module S = Rel.Reference

type micro = { op : string; n : int; ref_s : float; dense_s : float }

let micro_suite () =
  let st = Random.State.make [| 42 |] in
  let random_pairs n =
    List.init (2 * n) (fun _ ->
        (Random.State.int st n, Random.State.int st n))
  in
  let bench_pair op n iters dense_f ref_f =
    let dense_s = best_of 5 (fun () -> for _ = 1 to iters do dense_f () done)
    and ref_s = best_of 5 (fun () -> for _ = 1 to iters do ref_f () done) in
    { op; n; ref_s; dense_s }
  in
  List.concat_map
    (fun (n, i_union, i_seq, i_tc) ->
      let p1 = random_pairs n and p2 = random_pairs n in
      let d1 = Rel.of_list p1 and d2 = Rel.of_list p2 in
      let s1 = S.of_list p1 and s2 = S.of_list p2 in
      [
        bench_pair "union" n i_union
          (fun () -> ignore (Sys.opaque_identity (Rel.union d1 d2)))
          (fun () -> ignore (Sys.opaque_identity (S.union s1 s2)));
        bench_pair "inter" n i_union
          (fun () -> ignore (Sys.opaque_identity (Rel.inter d1 d2)))
          (fun () -> ignore (Sys.opaque_identity (S.inter s1 s2)));
        bench_pair "seq" n i_seq
          (fun () -> ignore (Sys.opaque_identity (Rel.seq d1 d2)))
          (fun () -> ignore (Sys.opaque_identity (S.seq s1 s2)));
        bench_pair "transitive_closure" n i_tc
          (fun () -> ignore (Sys.opaque_identity (Rel.transitive_closure d1)))
          (fun () -> ignore (Sys.opaque_identity (S.transitive_closure s1)));
        bench_pair "is_acyclic" n i_tc
          (fun () -> ignore (Sys.opaque_identity (Rel.is_acyclic d1)))
          (fun () -> ignore (Sys.opaque_identity (S.is_acyclic s1)));
      ])
    [ (8, 100_000, 50_000, 20_000); (24, 50_000, 10_000, 2_000);
      (64, 20_000, 1_000, 200) ]

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

(* The cat-interpreted LK model on its scalar (cached) engine. *)
let cat_scalar () =
  let oracle = Cat.to_oracle ~name:"LK(cat)" (Lazy.force lk_cat) in
  fun t -> Exec.Oracle.run ~backend:Exec.Check.Enum oracle t

let corpus_configs tests =
  let native = battery tests (fun t -> Exec.Check.run (module Lkmm) t)
  and cat = battery tests (cat_scalar ()) in
  (native, cat)

(* ------------------------------------------------------------------ *)
(* Smoke mode                                                          *)
(* ------------------------------------------------------------------ *)

let smoke_stride = 5

let run_smoke tests =
  let cat = cat_scalar () in
  battery tests (fun t ->
      ignore (Sys.opaque_identity (Exec.Check.run (module Lkmm) t));
      cat t)

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
      Printf.eprintf "bench_rel: no smoke baseline in %s\n" baseline_file;
      exit 2
  | Some base ->
      Printf.printf
        "bench_rel smoke: %d tests, %.4f s (baseline %.4f s, ratio %.2f)\n"
        (List.length tests) total base (total /. base);
      if total > 2.0 *. base then begin
        prerr_endline "bench_rel: FAIL: smoke slice more than 2x the baseline";
        exit 1
      end

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let full out =
  let micros = micro_suite () in
  let tests = load_corpus () in
  let native, cat = corpus_configs tests in
  let smoke_total = run_smoke (load_corpus ~stride:smoke_stride ()) in
  let micro_json =
    micros
    |> List.map (fun m ->
           Printf.sprintf
             "    { \"op\": %S, \"n\": %d, \"ref_s\": %.4f, \"dense_s\": \
              %.4f, \"speedup\": %.1f }"
             m.op m.n m.ref_s m.dense_s (m.ref_s /. m.dense_s))
    |> String.concat ",\n"
  in
  let json =
    Printf.sprintf
      {|{
  "description": "dense relation kernel + streaming enumeration with coherence prefilter + static-prefix cache, against the %s seed (pair-set kernel, materialised enumeration, no prefilter, no cache); corpus times are best-of-3 full-battery passes, micro times best-of-5 fixed-iteration loops",
  "micro": [
%s
  ],
  "corpus": {
    "n_tests": %d,
    "seed_baseline": { "commit": %S, "native_lk_s": %.4f, "cat_lk_s": %.4f },
    "native_lk": { "prefilter_on_s": %.4f },
    "cat_lk": { "cache_on_s": %.4f },
    "speedup_native_vs_seed": %.2f,
    "speedup_cat_vs_seed": %.2f
  },
  "smoke": { "stride": %d, "total_s": %.4f },
  "notes": "seed %.4fs -> %.4fs native and %.4fs -> %.4fs cat: the dense bitset kernel, the once-per-structure hoisting of witness-independent candidate parts (loc/int/ext/crit/event sets), the sc-per-location prefilter skipping the full axioms on incoherent candidates, and (cat) witness-independent bindings evaluated once per event structure.  Micro speedups are ref_s/dense_s per op."
}
|}
      seed_commit micro_json (List.length tests) seed_commit seed_native_s
      seed_cat_s native cat (seed_native_s /. native) (seed_cat_s /. cat)
      smoke_stride smoke_total seed_native_s native seed_cat_s cat
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  print_string json;
  if seed_native_s /. native < 3.0 && seed_cat_s /. cat < 3.0 then
    prerr_endline "bench_rel: WARNING: overall speedup below 3x on both paths"

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: rest ->
      smoke (match rest with b :: _ -> b | [] -> "BENCH_rel.json")
  | _ :: out :: _ -> full out
  | _ -> full "BENCH_rel.json"
