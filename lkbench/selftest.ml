(* lkbench --self-test: every workload, briefly, in both modes, through
   the real command line (a child process per run).  Checks that

   - the same seed generates the same inputs and another seed different
     ones;
   - each run exits 0 with a correct result;
   - the last line carries exactly the catalogue's metrics for its mode,
     each with its unit, and every metric is also printed as a
     "metric <name> = <value> <unit>" line. *)

module J = Harness.Journal.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      print_endline ("self-test: FAIL: " ^ s))
    fmt

let capture args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (out, Unix.close_process_in ic)

let check_run workload traced =
  let spec = if traced then Spec.per_layer else Spec.end_to_end in
  let out, status =
    capture
      [ "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace"; (if traced then "1" else "0") ]
  in
  let label = Printf.sprintf "%s --trace %d" workload (if traced then 1 else 0) in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s: did not exit 0" label);
  match List.rev out with
  | [] -> fail "%s: no output" label
  | last :: _ -> (
      match J.of_string last with
      | exception J.Malformed m -> fail "%s: last line is not JSON (%s)" label m
      | j ->
          if Option.bind (J.mem "correct" j) J.bool_ <> Some true then fail "%s: not correct" label;
          let metrics = match J.mem "metrics" j with Some (J.Obj kvs) -> kvs | _ -> [] in
          if List.sort compare (List.map fst metrics) <> List.sort compare (List.map fst spec)
          then fail "%s: metric names differ from the catalogue" label;
          List.iter
            (fun (name, unit) ->
              (match List.assoc_opt name metrics with
              | Some m ->
                  if Option.bind (J.mem "unit" m) J.str <> Some unit then
                    fail "%s: %s without unit %s" label name unit;
                  if Option.bind (J.mem "value" m) J.num = None then
                    fail "%s: %s has no numeric value" label name
              | None -> ());
              let prefix = "metric " ^ name ^ " = " in
              let printed =
                List.exists
                  (fun l ->
                    String.length l > String.length prefix
                    && String.sub l 0 (String.length prefix) = prefix
                    && Filename.check_suffix l (" " ^ unit))
                  out
              in
              if not printed then fail "%s: %s not printed with its unit" label name)
            spec;
          Printf.printf "self-test: %s ok\n%!" label)

let run ~workloads =
  List.iter
    (fun (w, digest) ->
      let a = digest 1 and a' = digest 1 and b = digest 2 in
      if a <> a' then fail "%s: seed 1 generated different inputs twice" w;
      if a = b then fail "%s: seeds 1 and 2 generated the same inputs" w)
    workloads;
  List.iter (fun (w, _) -> List.iter (check_run w) [ false; true ]) workloads;
  Printf.printf "self-test: %d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
