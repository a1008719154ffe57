(* obs_report: offline consumer for the observability outputs.

     obs_report run.jsonl                  # profile tables from --metrics
     obs_report --validate SCHEMA TRACE    # validate a --trace file
     obs_report --postmortem FLIGHT.jsonl  # last spans before death
     obs_report --postmortem-json FLIGHT.jsonl   # last checkpoint, raw

   The profile mode aggregates the JSONL metrics stream (spans, span
   totals, counters, histograms) into a per-phase table (time per span
   name, from the span_total lines, which count every closed span even
   when the ring dropped some), a per-test table (time per item, from
   the spans the ring kept) and the counter/histogram totals — the
   quick answer to "where did the run go" without opening Perfetto.

   The validate mode checks a Chrome trace-event file against a JSON
   Schema (the subset used by ci/trace.schema.json: type, properties,
   required, items, enum, minimum, minItems).  CI runs it on a corpus
   slice so the trace format cannot drift silently.  Exit codes: 0 ok,
   2 malformed input or schema violation.

   The postmortem mode reads a crash flight-recorder journal
   (Obs.flight_start; lkflight-1 lines), takes the last parseable
   checkpoint — a SIGKILL mid-write tears at most that final line —
   and renders the victim's last spans before death, open spans
   flagged.  --postmortem-json emits the same checkpoint as one JSON
   object for schema validation (ci/postmortem.schema.json). *)

module J = Harness.Journal.Json

let sfield j k = Option.bind (J.mem k j) J.str
let nfield j k = Option.bind (J.mem k j) J.num

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Profile mode                                                        *)
(* ------------------------------------------------------------------ *)

type phase = {
  mutable count : int;
  mutable total : float;
  mutable self : float;
  mutable max : float;
}

let profile path =
  let phases : (string, phase) Hashtbl.t = Hashtbl.create 16 in
  let items : (string, phase) Hashtbl.t = Hashtbl.create 64 in
  let counters = ref [] and hists = ref [] in
  let dropped = ref 0 and n_spans = ref 0 in
  let phase tbl key =
    match Hashtbl.find_opt tbl key with
    | Some p -> p
    | None ->
        let p = { count = 0; total = 0.; self = 0.; max = 0. } in
        Hashtbl.replace tbl key p;
        p
  in
  let bump tbl key dur =
    let p = phase tbl key in
    p.count <- p.count + 1;
    p.total <- p.total +. dur;
    if dur > p.max then p.max <- dur
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            (* a torn final line (killed run) is dropped, like the journal *)
            match J.of_string line with
            | exception J.Malformed _ -> ()
            | j -> (
                match sfield j "type" with
                | Some "span" -> (
                    (* per-test time = the top-level span of each item *)
                    let dur =
                      Option.value ~default:0. (nfield j "dur_us")
                    in
                    match (nfield j "parent", sfield j "item") with
                    | Some p, Some item when p < 0. && item <> "" ->
                        bump items item dur
                    | _ -> ())
                | Some "span_total" -> (
                    let num k = Option.value ~default:0. (nfield j k) in
                    match sfield j "name" with
                    | Some name ->
                        let p = phase phases name in
                        let count = int_of_float (num "count") in
                        n_spans := !n_spans + count;
                        p.count <- p.count + count;
                        p.total <- p.total +. num "total_us";
                        p.self <- p.self +. num "self_us";
                        p.max <- Float.max p.max (num "max_us")
                    | None -> ())
                | Some "counter" -> (
                    match (sfield j "name", nfield j "value") with
                    | Some n, Some v -> counters := (n, int_of_float v) :: !counters
                    | _ -> ())
                | Some "hist" -> (
                    match
                      ( sfield j "name",
                        nfield j "count",
                        nfield j "sum_us",
                        nfield j "max_us" )
                    with
                    | Some n, Some c, Some s, Some m ->
                        hists := (n, int_of_float c, s, m) :: !hists
                    | _ -> ())
                | Some "meta" ->
                    dropped :=
                      !dropped
                      + int_of_float (Option.value ~default:0. (nfield j "dropped"))
                | _ -> ())
        done
      with End_of_file -> ());
  let grand =
    Hashtbl.fold (fun _ p acc -> acc +. p.total) items 0. |> Float.max 1e-9
  in
  let rows tbl =
    Hashtbl.fold (fun k p acc -> (k, p) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b.total a.total)
  in
  Printf.printf "Per-phase (all spans, %d total):\n" !n_spans;
  Printf.printf "  %-14s %8s %12s %12s %12s %12s\n" "phase" "count" "total_ms"
    "self_ms" "mean_us" "max_us";
  List.iter
    (fun (name, p) ->
      Printf.printf "  %-14s %8d %12.3f %12.3f %12.1f %12.1f\n" name p.count
        (p.total /. 1000.) (p.self /. 1000.)
        (p.total /. float_of_int (max 1 p.count))
        p.max)
    (rows phases);
  if Hashtbl.length items > 0 then begin
    Printf.printf "\nPer-test (top-level spans; top 20 of %d%s):\n"
      (Hashtbl.length items)
      (if !dropped > 0 then
         Printf.sprintf ", %d spans dropped from the ring" !dropped
       else "");
    Printf.printf "  %-45s %8s %12s %7s\n" "test" "spans" "total_ms" "share";
    List.iteri
      (fun i (name, p) ->
        if i < 20 then
          Printf.printf "  %-45s %8d %12.3f %6.1f%%\n" name p.count
            (p.total /. 1000.)
            (100. *. p.total /. grand))
      (rows items)
  end;
  if !counters <> [] then begin
    Printf.printf "\nCounters:\n";
    List.iter
      (fun (n, v) -> Printf.printf "  %-28s %12d\n" n v)
      (List.sort compare !counters)
  end;
  (* forensics: the explainer bumps explain.check_fail.<check> once per
     explained failure, so a corpus run with --explain summarises to a
     "which checks fire most" table *)
  let prefix = "explain.check_fail." in
  let failing =
    List.filter_map
      (fun (n, v) ->
        if
          String.length n > String.length prefix
          && String.sub n 0 (String.length prefix) = prefix
        then
          Some
            (String.sub n (String.length prefix)
               (String.length n - String.length prefix), v)
        else None)
      !counters
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  if failing <> [] then begin
    let total = List.fold_left (fun acc (_, v) -> acc + v) 0 failing in
    Printf.printf "\nTop failing checks (%d explained failures):\n" total;
    Printf.printf "  %-28s %8s %7s\n" "check" "fails" "share";
    List.iter
      (fun (n, v) ->
        Printf.printf "  %-28s %8d %6.1f%%\n" n v
          (100. *. float_of_int v /. float_of_int (max 1 total)))
      failing
  end;
  let counter n = List.assoc_opt n !counters in
  (* event structures, those whose candidates the condition gate
     skipped, and the static shapes built: one shape serves every built
     structure that differs from another only in read values, and a
     shape is built only for a structure an engine builds (not for one
     the gate refutes or that has no candidate), so structures per shape
     built counts the unbuilt ones too *)
  (match (counter "exec.structures", counter "exec.shapes") with
  | Some s, Some sh ->
      Printf.printf "\nEvent structures:\n";
      Printf.printf
        "  %-28s %12d\n  %-28s %12d\n  %-28s %12d\n  %-28s %12.2f\n"
        "structures" s "refuted by the condition"
        (Option.value ~default:0 (counter "exec.cond_refuted"))
        "shapes built" sh "structures per shape built"
        (float_of_int s /. float_of_int (Stdlib.max 1 sh))
  | _ -> ());
  (* the hardware simulator: runs (aborted at the step cap), scheduler
     steps (idle ones included) and time per run, from the hwsim.run
     spans (one per run_test / run_program call) *)
  (match counter "hwsim.runs" with
  | Some runs ->
      let steps = Option.value ~default:0 (counter "hwsim.steps")
      and aborted = Option.value ~default:0 (counter "hwsim.aborted")
      and us =
        Option.fold ~none:0. ~some:(fun p -> p.total)
          (Hashtbl.find_opt phases "hwsim.run")
      in
      Printf.printf "\nHardware simulator:\n";
      Printf.printf "  %-10s %10s %12s %10s %10s\n" "" "runs" "steps" "steps/run"
        "us/run";
      Printf.printf "  %-10s %10d %12d %10.1f %10.2f%s\n" "hwsim" runs steps
        (float_of_int steps /. float_of_int (Stdlib.max 1 runs))
        (us /. float_of_int (Stdlib.max 1 runs))
        (if aborted > 0 then Printf.sprintf " (%d aborted)" aborted else "")
  | None -> ());
  (* the symbolic backend's own table: per-structure sat/unsat split,
     conflict totals, and the two "should be zero" columns (spurious
     witnesses, counted enumerative fallbacks) *)
  (if counter "solve.structures" <> None || counter "sat.fallback" <> None
   then begin
     Printf.printf "\nSymbolic (SAT) backend:\n";
     (match counter "solve.structures" with
     | Some s ->
         let sat = Option.value ~default:0 (counter "solve.sat")
         and unsat = Option.value ~default:0 (counter "solve.unsat") in
         Printf.printf "  %-28s %12d (sat %d, unsat %d)\n"
           "structures solved" s sat unsat;
         (* refuted by the condition before encoding, or encoded *)
         let refuted = Option.value ~default:0 (counter "solve.cond_refuted")
         and encoded = Option.value ~default:0 (counter "solve.encoded") in
         Printf.printf "  %-28s %12d / %d (%.1f%% refuted)\n"
           "refuted / encoded" refuted encoded
           (100. *. float_of_int refuted /. float_of_int (Stdlib.max 1 s))
     | None -> ());
     (* CNF size over the encoded structures *)
     (match (counter "solve.vars", counter "solve.clauses") with
     | Some v, Some c ->
         let encoded =
           Stdlib.max 1 (Option.value ~default:0 (counter "solve.encoded"))
         in
         Printf.printf "  %-28s %12d / %d (%.0f / %.0f per structure)\n"
           "CNF variables / clauses" v c
           (float_of_int v /. float_of_int encoded)
           (float_of_int c /. float_of_int encoded)
     | _ -> ());
     (* the model's axioms callback, nested in each solve.encode *)
     (match
        (Hashtbl.find_opt phases "solve.axioms",
         Hashtbl.find_opt phases "solve.encode")
      with
     | Some ax, Some enc ->
         Printf.printf
           "  %-28s %12.1f%% of solve.encode (%.1f / %.1f us mean)\n"
           "axioms callback"
           (100. *. ax.total /. Float.max 1e-9 enc.total)
           (ax.total /. float_of_int (Stdlib.max 1 ax.count))
           (enc.total /. float_of_int (Stdlib.max 1 enc.count))
     | _ -> ());
     (match counter "solve.conflicts" with
     | Some c -> Printf.printf "  %-28s %12d\n" "conflicts" c
     | None -> ());
     (match counter "solve.propagations" with
     | Some p -> Printf.printf "  %-28s %12d\n" "propagations" p
     | None -> ());
     (match counter "solve.restarts" with
     | Some r -> Printf.printf "  %-28s %12d\n" "restarts" r
     | None -> ());
     let hist n = List.find_opt (fun (n', _, _, _) -> n' = n) !hists in
     (match hist "solve.learnt_len" with
     | Some (_, c, sum, mx) ->
         Printf.printf "  %-28s %12.1f lits (max %.0f, %d clauses)\n"
           "mean learnt length"
           (sum /. float_of_int (Stdlib.max 1 c))
           mx c
     | None -> ());
     (match hist "solve.dlevel" with
     | Some (_, c, sum, mx) ->
         Printf.printf "  %-28s %12.1f (max %.0f)\n" "mean conflict level"
           (sum /. float_of_int (Stdlib.max 1 c))
           mx
     | None -> ());
     (match counter "solve.spurious" with
     | Some s when s > 0 ->
         Printf.printf "  %-28s %12d  <- encoder/solver bug\n"
           "spurious witnesses" s
     | _ -> ());
     match counter "sat.fallback" with
     | Some f when f > 0 ->
         Printf.printf "  %-28s %12d (solver-less models)\n"
           "enumerative fallbacks" f
     | _ -> ()
   end);
  (* clause lengths and decision levels are not durations: they have
     their own table above and stay out of the µs-labelled one *)
  let hists =
    ref
      (List.filter
         (fun (n, _, _, _) ->
           not (List.mem n [ "solve.learnt_len"; "solve.dlevel" ]))
         !hists)
  in
  if !hists <> [] then begin
    Printf.printf "\nHistograms:\n";
    Printf.printf "  %-28s %8s %12s %12s %12s\n" "name" "count" "sum_ms"
      "mean_us" "max_us";
    List.iter
      (fun (n, c, s, m) ->
        Printf.printf "  %-28s %8d %12.3f %12.1f %12.1f\n" n c (s /. 1000.)
          (s /. float_of_int (max 1 c))
          m)
      (List.sort compare !hists)
  end;
  0

(* ------------------------------------------------------------------ *)
(* Validate mode: the JSON Schema subset CI needs                      *)
(* ------------------------------------------------------------------ *)

let schema_errors schema doc =
  let errors = ref [] in
  let err path msg =
    if List.length !errors < 20 then
      errors := Printf.sprintf "%s: %s" path msg :: !errors
  in
  let type_name = function
    | J.Null -> "null"
    | J.Bool _ -> "boolean"
    | J.Num _ -> "number"
    | J.Str _ -> "string"
    | J.Arr _ -> "array"
    | J.Obj _ -> "object"
  in
  let type_ok v = function
    | "null" -> v = J.Null
    | "boolean" -> ( match v with J.Bool _ -> true | _ -> false)
    | "number" -> ( match v with J.Num _ -> true | _ -> false)
    | "integer" -> (
        match v with J.Num f -> Float.is_integer f | _ -> false)
    | "string" -> ( match v with J.Str _ -> true | _ -> false)
    | "array" -> ( match v with J.Arr _ -> true | _ -> false)
    | "object" -> ( match v with J.Obj _ -> true | _ -> false)
    | _ -> true (* unknown type names pass: forward compatibility *)
  in
  let rec check path (schema : J.t) (v : J.t) =
    match schema with
    | J.Obj fields ->
        List.iter
          (fun (kw, sv) ->
            match (kw, sv) with
            | "type", J.Str t ->
                if not (type_ok v t) then
                  err path
                    (Printf.sprintf "expected %s, got %s" t (type_name v))
            | "type", J.Arr ts ->
                if
                  not
                    (List.exists
                       (function J.Str t -> type_ok v t | _ -> false)
                       ts)
                then err path ("unexpected type " ^ type_name v)
            | "required", J.Arr names -> (
                match v with
                | J.Obj props ->
                    List.iter
                      (function
                        | J.Str n ->
                            if not (List.mem_assoc n props) then
                              err path ("missing required property " ^ n)
                        | _ -> ())
                      names
                | _ -> ())
            | "properties", J.Obj subschemas -> (
                match v with
                | J.Obj props ->
                    List.iter
                      (fun (name, sub) ->
                        match List.assoc_opt name props with
                        | Some pv -> check (path ^ "." ^ name) sub pv
                        | None -> ())
                      subschemas
                | _ -> ())
            | "items", sub -> (
                match v with
                | J.Arr elts ->
                    List.iteri
                      (fun i e ->
                        check (Printf.sprintf "%s[%d]" path i) sub e)
                      elts
                | _ -> ())
            | "minItems", J.Num n -> (
                match v with
                | J.Arr elts ->
                    if List.length elts < int_of_float n then
                      err path
                        (Printf.sprintf "fewer than %d items" (int_of_float n))
                | _ -> ())
            | "enum", J.Arr allowed ->
                if not (List.mem v allowed) then err path "not in enum"
            | "minimum", J.Num lo -> (
                match v with
                | J.Num f -> if f < lo then err path "below minimum"
                | _ -> ())
            | _ -> () (* unsupported keywords are ignored *))
          fields
    | _ -> ()
  in
  check "$" schema doc;
  List.rev !errors

let validate schema_path doc_path =
  let parse what path =
    match J.of_string (read_file path) with
    | j -> j
    | exception J.Malformed msg ->
        Printf.eprintf "obs_report: %s %s: malformed JSON: %s\n" what path msg;
        exit 2
  in
  let schema = parse "schema" schema_path in
  let doc = parse "document" doc_path in
  match schema_errors schema doc with
  | [] ->
      Printf.printf "%s: valid against %s\n" doc_path schema_path;
      0
  | errs ->
      List.iter (fun e -> Printf.eprintf "obs_report: %s: %s\n" doc_path e) errs;
      2

(* ------------------------------------------------------------------ *)
(* Post-mortem mode: the crash flight recorder's reader                *)
(* ------------------------------------------------------------------ *)

(* The last parseable lkflight-1 checkpoint of a flight journal.  A
   SIGKILL mid-write tears at most the final line, which load_json
   drops — exactly the journal convention the recorder writes under. *)
let last_checkpoint path =
  List.fold_left
    (fun acc j ->
      match sfield j "schema" with Some "lkflight-1" -> Some j | _ -> acc)
    None
    (Harness.Journal.load_json path)

let postmortem path =
  match last_checkpoint path with
  | None ->
      Printf.eprintf "obs_report: %s: no flight checkpoint found\n" path;
      2
  | Some j ->
      let num k = Option.value ~default:0. (nfield j k) in
      Printf.printf "Post-mortem: %s\n" path;
      Printf.printf "  pid %d, last checkpoint \"%s\" at t=%.0fus%s\n"
        (int_of_float (num "pid"))
        (Option.value ~default:"?" (sfield j "reason"))
        (num "ts_us")
        (if num "dropped" > 0. then
           Printf.sprintf " (%d older spans overwritten)"
             (int_of_float (num "dropped"))
         else "");
      (match J.mem "spans" j with
      | Some (J.Arr spans) ->
          Printf.printf "\n  Last %d spans before death (oldest first):\n"
            (List.length spans);
          Printf.printf "  %-6s %-20s %-32s %12s  %s\n" "tid" "name" "item"
            "dur_us" "";
          List.iter
            (fun s ->
              let sn k = Option.value ~default:0. (nfield s k) in
              Printf.printf "  %-6d %-20s %-32s %12.1f  %s\n"
                (int_of_float (sn "tid"))
                (Option.value ~default:"" (sfield s "name"))
                (Option.value ~default:"" (sfield s "item"))
                (sn "dur_us")
                (match Option.bind (J.mem "open" s) J.bool_ with
                | Some true -> "<- open at death"
                | _ -> ""))
            spans
      | _ -> ());
      (match J.mem "counters" j with
      | Some (J.Obj kvs) when kvs <> [] ->
          Printf.printf "\n  Counters at death:\n";
          List.iter
            (fun (k, v) ->
              match J.num v with
              | Some v -> Printf.printf "    %-28s %12.0f\n" k v
              | None -> ())
            kvs
      | _ -> ());
      0

let postmortem_json path =
  match last_checkpoint path with
  | None ->
      Printf.eprintf "obs_report: %s: no flight checkpoint found\n" path;
      2
  | Some j ->
      print_endline (J.to_string j);
      0

let () =
  match Array.to_list Sys.argv with
  | [ _; "--validate"; schema; doc ] -> exit (validate schema doc)
  | [ _; "--postmortem"; path ] -> exit (postmortem path)
  | [ _; "--postmortem-json"; path ] -> exit (postmortem_json path)
  | [ _; path ] when String.length path > 0 && path.[0] <> '-' ->
      exit (profile path)
  | _ ->
      Printf.eprintf
        "usage: obs_report METRICS.jsonl\n       obs_report --validate \
         SCHEMA.json TRACE.json\n       obs_report --postmortem[-json] \
         FLIGHT.jsonl\n";
      exit 124
