(* lkbench: the repository's benchmark.

     lkbench --workload W --seed N --seconds S --trace 0|1
     lkbench --self-test
     lkbench --regen-sat-pool

   Runs one workload (corpus, sat-large, campaign; see README.md)
   on inputs generated from the seed, checks every answer against its
   golden verdict, prints machine facts, notes and every metric by name
   with its unit, and ends with one JSON line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   --trace 0 measures the end-to-end metrics; --trace 1 replays the
   workload's inputs with bench-side spans and reports the per-layer
   metrics (Spec).  The same line, with the facts, is also written to
   _lkbench/result-<workload>-<seed>-<trace>.json. *)

let workloads =
  [
    ("corpus", (Wl_corpus.run, Wl_corpus.trace, Wl_corpus.inputs_digest));
    ("sat-large", (Wl_sat.run, Wl_sat.trace, Wl_sat.inputs_digest));
    ("campaign", (Wl_campaign.run, Wl_campaign.trace, Wl_campaign.inputs_digest));
  ]

let usage () =
  prerr_endline
    "usage: lkbench --workload (corpus|sat-large|campaign) --seed N \
     --seconds S --trace (0|1)\n\
    \       lkbench --self-test\n\
    \       lkbench --regen-sat-pool";
  exit 2

let json_string s = "\"" ^ Harness.Report.json_escape s ^ "\""

let result_line ~(spec : (string * string) list) (o : Common.outcome) =
  let metric (name, unit) =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name)
      (List.assoc name o.Common.metrics) (json_string unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Common.correct o.Common.attempted o.Common.failed
    (String.concat ", " (List.map metric spec))

let run_one ~workload ~seed ~seconds ~traced =
  let run, trace, _ = List.assoc workload workloads in
  let o = (if traced then trace else run) ~seed ~seconds in
  let spec = if traced then Spec.per_layer else Spec.end_to_end in
  let names = List.map fst o.Common.metrics |> List.sort compare in
  if names <> List.sort compare (List.map fst spec) then
    failwith "lkbench: a workload reported a metric set other than the catalogue's";
  (* a value that is not a finite number is a broken measurement *)
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) o.Common.metrics in
  let o = if finite then o else { o with Common.correct = false } in
  let facts = Facts.all ~workload in
  List.iter (fun (k, v) -> Printf.printf "fact %s = %s\n" k v) facts;
  List.iter (fun (k, v) -> Printf.printf "note %s: %s\n" k v) o.Common.notes;
  List.iter
    (fun (name, unit) ->
      Printf.printf "metric %s = %.6g %s\n" name (List.assoc name o.Common.metrics) unit)
    spec;
  let line = result_line ~spec o in
  Common.ensure_dir Common.out_dir;
  Common.write_file
    (Filename.concat Common.out_dir
       (Printf.sprintf "result-%s-%d-%d.json" workload seed (if traced then 1 else 0)))
    (Printf.sprintf "{\"facts\": {%s}, \"notes\": {%s}, \"result\": %s}\n"
       (String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) facts))
       (String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) o.Common.notes))
       line);
  print_endline line;
  if not o.Common.correct then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--self-test" ] -> exit (Selftest.run ~workloads:(List.map (fun (w, (_, _, d)) -> (w, d)) workloads))
  | [ "--regen-sat-pool" ] -> Wl_sat.regen ()
  | _ ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "--workload" in
      if not (List.mem_assoc workload workloads) then usage ();
      let seconds = float_of_int (int "--seconds") in
      let traced =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      if seconds <= 0. then usage ();
      run_one ~workload ~seed:(int "--seed") ~seconds ~traced
