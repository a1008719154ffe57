(* Tests for verdict forensics (ISSUE 5): golden explanation text on
   three canonical forbidden tests (message passing, store buffering,
   RCU), the property that every explanation produced over the whole
   battery re-validates edge-by-edge against an independently built
   resolver, tamper-detection of the validator, the counterexample/
   explanations plumbing of Exec.Check, and the CPU cost of turning the
   explainers on.

   Goldens live in test/goldens/; regenerate with
     UPDATE_GOLDENS=1 dune runtest *)

let battery name = Harness.Battery.test_of (Harness.Battery.find name)
let lk_cat = lazy (Lazy.force Cat.lk)

let run_explained ?(native = false) test =
  if native then
    List.hd
      (Exec.Check.run
         [ Exec.Check.model ~explainer:Lkmm.Explain.explainer (module Lkmm) ]
         test)
  else
    let model = Lazy.force lk_cat in
    Exec.Oracle.run ~backend:Exec.Check.Enum
      ~explainer:(Cat.Explain.explainer model)
      (Cat.to_oracle ~name:"LK(cat)" model)
      test

(* ------------------------------------------------------------------ *)
(* Goldens                                                             *)
(* ------------------------------------------------------------------ *)

let goldens_dir =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "goldens"; "test/goldens"; "../../../test/goldens" ]
     with
    | Some d -> d
    | None ->
        (* running from an unexpected cwd: create next to us *)
        "goldens")

let update_goldens =
  match Sys.getenv_opt "UPDATE_GOLDENS" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name actual =
  let dir = Lazy.force goldens_dir in
  let path = Filename.concat dir name in
  if update_goldens then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf "golden %s missing; run UPDATE_GOLDENS=1 dune runtest" path
  else
    Alcotest.(check string) (name ^ " matches golden") (read_file path) actual

let explanation_text test_name =
  let r = run_explained (battery test_name) in
  Alcotest.(check bool)
    (test_name ^ " is forbidden") true
    (r.Exec.Check.verdict = Exec.Check.Forbid);
  Alcotest.(check bool)
    (test_name ^ " has explanations") true
    (r.Exec.Check.explanations <> []);
  String.concat "\n"
    (List.map Exec.Explain.to_string r.Exec.Check.explanations)
  ^ "\n"

let test_golden_mp () =
  check_golden "MP+wmb+rmb.explain.txt" (explanation_text "MP+wmb+rmb")

let test_golden_sb () =
  check_golden "SB+mbs.explain.txt" (explanation_text "SB+mbs")

let test_golden_rcu () =
  check_golden "RCU-MP.explain.txt" (explanation_text "RCU-MP")

(* The DOT rendering of the explained counterexample, overlay included. *)
let test_golden_dot () =
  let r = run_explained (battery "MP+wmb+rmb") in
  match r.Exec.Check.counterexample with
  | None -> Alcotest.fail "no counterexample"
  | Some x ->
      check_golden "MP+wmb+rmb.explain.dot"
        (Exec.Dot.to_string ~explain:r.Exec.Check.explanations x)

let test_dot_escaping () =
  Alcotest.(check string) "escape" {|a\"b\\c\nd|}
    (Exec.Dot.escape "a\"b\\c\nd");
  let dot = Exec.Dot.to_string (battery "SB" |> Exec.of_test |> List.hd) in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 7 && String.sub dot 0 7 = "digraph")

(* ------------------------------------------------------------------ *)
(* Property: every battery explanation re-validates                    *)
(* ------------------------------------------------------------------ *)

(* The engines validate internally (Invalid is a hard error), so this
   re-runs the validation *externally*, with a resolver rebuilt from
   scratch on the counterexample — the report-consumer's view. *)
let test_battery_revalidates () =
  let model = Lazy.force lk_cat in
  let n_explained = ref 0 and n_steps = ref 0 in
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let test = Harness.Battery.test_of e in
      let r = run_explained test in
      match (r.Exec.Check.verdict, r.Exec.Check.counterexample) with
      | Exec.Check.Forbid, Some cex ->
          Alcotest.(check bool)
            (e.Harness.Battery.name ^ ": forbidden verdict is explained")
            true
            (r.Exec.Check.explanations <> []);
          let resolve = Cat.Explain.resolver model cex in
          List.iter
            (fun (ex : Exec.Explain.t) ->
              incr n_explained;
              n_steps := !n_steps + List.length ex.Exec.Explain.steps;
              Exec.Explain.validate ~resolve ex)
            r.Exec.Check.explanations
      | Exec.Check.Forbid, None ->
          (* forbidden with no condition-satisfying candidate at all:
             nothing to explain (e.g. a condition no outcome reaches) *)
          Alcotest.(check (list Alcotest.reject))
            (e.Harness.Battery.name ^ ": no counterexample, no explanations")
            [] r.Exec.Check.explanations
      | _ -> ())
    Harness.Battery.all;
  Alcotest.(check bool) "battery produced explanations" true (!n_explained > 0);
  Alcotest.(check bool) "explanations have steps" true (!n_steps > 0)

(* The native explainer agrees with the cat one on which checks fail,
   and also re-validates. *)
let test_native_explainer () =
  List.iter
    (fun name ->
      let test = battery name in
      let rc = run_explained test and rn = run_explained ~native:true test in
      let names r =
        List.sort_uniq compare
          (List.map
             (fun (e : Exec.Explain.t) -> e.Exec.Explain.check)
             r.Exec.Check.explanations)
      in
      Alcotest.(check (list string))
        (name ^ ": native and cat explainers name the same checks")
        (names rc) (names rn))
    [ "MP+wmb+rmb"; "SB+mbs"; "RCU-MP"; "SB"; "MP" ]

(* An RCU cycle of three links, each thread reading the previous one's
   write: "ggr" has two grace periods and one critical section.  The
   decomposition of [rcu-path] backtracks exponentially on these without
   its per-step work budget; with it each explains within 1 s of CPU
   under both explainers, and every explanation re-validates and names
   the [rcu] check. *)
let rcu_cycle word =
  let n = String.length word in
  let thread i =
    let a = Printf.sprintf "a%d" i
    and b = Printf.sprintf "a%d" ((i + 1) mod n) in
    let read = Printf.sprintf "int r0 = READ_ONCE(*%s);" a
    and write = Printf.sprintf "WRITE_ONCE(*%s, 1);" b in
    Printf.sprintf "P%d(int *%s, int *%s) { %s }" i a b
      (if word.[i] = 'g' then
         Printf.sprintf "%s synchronize_rcu(); %s" read write
       else
         Printf.sprintf "rcu_read_lock(); %s %s rcu_read_unlock();" read write)
  in
  Litmus.parse
    (Printf.sprintf "C RCU-%s\n{ }\n%s\nexists (%s)\n" word
       (String.concat "\n" (List.init n thread))
       (String.concat " /\\ " (List.init n (Printf.sprintf "%d:r0=1"))))

let test_rcu_three_links () =
  let model = Lazy.force lk_cat in
  List.iter
    (fun word ->
      List.iter
        (fun native ->
          let what =
            Printf.sprintf "RCU-%s, %s" word
              (if native then "native" else "lk.cat")
          in
          let t0 = Sys.time () in
          let r = run_explained ~native (rcu_cycle word) in
          let cpu = Sys.time () -. t0 in
          Alcotest.(check bool) (what ^ ": within 1 s of CPU") true (cpu < 1.);
          match (r.Exec.Check.verdict, r.Exec.Check.counterexample) with
          | Exec.Check.Forbid, Some cex ->
              let resolve = Cat.Explain.resolver model cex in
              List.iter (Exec.Explain.validate ~resolve)
                r.Exec.Check.explanations;
              Alcotest.(check bool) (what ^ ": names rcu") true
                (List.exists
                   (fun (e : Exec.Explain.t) -> e.Exec.Explain.check = "rcu")
                   r.Exec.Check.explanations)
          | _ -> Alcotest.failf "%s: expected a Forbid counterexample" what)
        [ true; false ])
    [ "ggr"; "grg" ]

(* ------------------------------------------------------------------ *)
(* Validator tamper detection                                          *)
(* ------------------------------------------------------------------ *)

let some_explanation () =
  let r = run_explained (battery "SB+mbs") in
  match (r.Exec.Check.explanations, r.Exec.Check.counterexample) with
  | e :: _, Some cex -> (e, cex)
  | _ -> Alcotest.fail "SB+mbs produced no explanation"

let test_validator_rejects_tampering () =
  let e, cex = some_explanation () in
  let resolve = Cat.Explain.resolver (Lazy.force lk_cat) cex in
  (* untampered passes *)
  Exec.Explain.validate ~resolve e;
  let tampered =
    match e.Exec.Explain.steps with
    | (s : Exec.Explain.step) :: rest ->
        { e with Exec.Explain.steps = { s with Exec.Explain.src = s.Exec.Explain.src + 1 } :: rest }
    | [] -> Alcotest.fail "explanation has no steps"
  in
  Alcotest.check_raises "shifted edge is rejected"
    (Exec.Explain.Invalid "")
    (fun () ->
      try Exec.Explain.validate ~resolve tampered
      with Exec.Explain.Invalid _ -> raise (Exec.Explain.Invalid ""));
  let relabelled =
    match e.Exec.Explain.steps with
    | s :: rest ->
        {
          e with
          Exec.Explain.steps =
            { s with Exec.Explain.prims = [ { Exec.Explain.p_src = s.Exec.Explain.src; p_dst = s.Exec.Explain.dst; p_label = "rmw" } ] }
            :: rest;
        }
    | [] -> assert false
  in
  (* relabelling a cycle edge as rmw: no SB edge is an rmw edge *)
  Alcotest.check_raises "false relation label is rejected"
    (Exec.Explain.Invalid "")
    (fun () ->
      try Exec.Explain.validate ~resolve relabelled
      with Exec.Explain.Invalid _ -> raise (Exec.Explain.Invalid ""))

(* ------------------------------------------------------------------ *)
(* Check plumbing                                                      *)
(* ------------------------------------------------------------------ *)

(* No explainer: result must carry no forensics, and an Allow verdict
   must carry none even with an explainer. *)
let test_check_plumbing () =
  let forbidden = battery "SB+mbs" in
  let r =
    List.hd (Exec.Check.run [ Exec.Check.model (module Lkmm) ] forbidden)
  in
  Alcotest.(check bool) "no explainer, no explanations" true
    (r.Exec.Check.explanations = [] && r.Exec.Check.counterexample = None);
  let allowed = battery "SB" in
  let r = run_explained allowed in
  Alcotest.(check bool) "allow verdict carries no explanations" true
    (r.Exec.Check.verdict = Exec.Check.Allow
    && r.Exec.Check.explanations = []
    && r.Exec.Check.counterexample = None)

(* The explained counterexample satisfies the condition and is rejected
   by the model — the execution the diagrams should draw. *)
let test_counterexample_shape () =
  let r = run_explained (battery "MP+wmb+rmb") in
  match r.Exec.Check.counterexample with
  | None -> Alcotest.fail "no counterexample"
  | Some x ->
      Alcotest.(check bool) "counterexample matches the condition" true
        (Exec.satisfies_cond x);
      Alcotest.(check bool) "counterexample is inconsistent" true
        (not (Lkmm.consistent x))

(* JSON of an explanation round-trips through the shared JSON parser. *)
let test_json_shape () =
  let e, _ = some_explanation () in
  let module J = Harness.Journal.Json in
  match J.of_string (Exec.Explain.to_json e) with
  | exception J.Malformed m -> Alcotest.failf "malformed JSON: %s" m
  | j ->
      let field k = Option.get (J.mem k j) in
      Alcotest.(check bool) "check name" true
        (J.str (field "check") = Some e.Exec.Explain.check);
      let steps = match field "steps" with J.Arr l -> l | _ -> [] in
      Alcotest.(check int) "steps arity"
        (List.length e.Exec.Explain.steps)
        (List.length steps);
      let events = match field "events" with J.Arr l -> l | _ -> [] in
      Alcotest.(check bool) "events present" true (events <> [])

(* ------------------------------------------------------------------ *)
(* Overhead                                                            *)
(* ------------------------------------------------------------------ *)

(* The explainers run once per Forbid verdict, never per candidate: with
   them on, the corpus slice under native LK and lk.cat may cost at most
   3x its CPU time with them off. *)
let test_explain_overhead () =
  let battery ~explain =
    let native_ex = if explain then Some Lkmm.Explain.explainer else None
    and cat_ex =
      if explain then Some (Cat.Explain.explainer (Lazy.force lk_cat))
      else None
    in
    Cpu_ratio.battery
      ~native:
        (Exec.Check.run
           [ Exec.Check.model ?explainer:native_ex (module Lkmm) ])
      ~cat:
        (Exec.Oracle.run ~backend:Exec.Check.Enum ?explainer:cat_ex
           (Lazy.force Cpu_ratio.lk_cat))
  in
  let r =
    Cpu_ratio.median ~base:(battery ~explain:false) (battery ~explain:true)
  in
  Alcotest.(check bool)
    (Printf.sprintf "explain on/off CPU %.3f <= 3" r)
    true (r <= 3.)

let () =
  Alcotest.run "explain"
    [
      ( "goldens",
        [
          Alcotest.test_case "MP+wmb+rmb text" `Quick test_golden_mp;
          Alcotest.test_case "SB+mbs text" `Quick test_golden_sb;
          Alcotest.test_case "RCU-MP text" `Quick test_golden_rcu;
          Alcotest.test_case "MP+wmb+rmb dot" `Quick test_golden_dot;
        ] );
      ( "dot",
        [ Alcotest.test_case "label escaping" `Quick test_dot_escaping ] );
      ( "property",
        [
          Alcotest.test_case "battery re-validates" `Quick
            test_battery_revalidates;
          Alcotest.test_case "native explainer agrees" `Quick
            test_native_explainer;
          Alcotest.test_case "three-link RCU cycles explain" `Quick
            test_rcu_three_links;
        ] );
      ( "validator",
        [
          Alcotest.test_case "tamper detection" `Quick
            test_validator_rejects_tampering;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "check result" `Quick test_check_plumbing;
          Alcotest.test_case "counterexample shape" `Quick
            test_counterexample_shape;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "explain costs at most 3x" `Slow
            test_explain_overhead;
        ] );
    ]
