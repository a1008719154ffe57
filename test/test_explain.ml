(* Tests for verdict forensics (ISSUE 5): golden explanation text on
   three canonical forbidden tests (message passing, store buffering,
   RCU), a three-link RCU cycle and the whole battery, the property
   that every explanation produced over the whole battery re-validates
   edge-by-edge against an independently built resolver, that RCU
   cycles of up to five links explain down to primitive edges,
   tamper-detection of the validator, the counterexample/
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

(* An RCU cycle, one thread per letter, each thread reading the previous
   one's write: a "g" thread has a grace period between its read and its
   write, an "r" thread a critical section around both.  "ggr" has two
   grace periods and one critical section. *)
let rcu_cycle word =
  let n = String.length word in
  let thread i =
    let a = Printf.sprintf "a%d" i
    and b = Printf.sprintf "a%d" ((i + 1) mod n) in
    let read = Printf.sprintf "int r0 = READ_ONCE(*%s);" a
    and write = Printf.sprintf "WRITE_ONCE(*%s, 1);" b in
    Printf.sprintf "P%d(%s) { %s }" i
      (if a = b then "int *" ^ a else Printf.sprintf "int *%s, int *%s" a b)
      (if word.[i] = 'g' then
         Printf.sprintf "%s synchronize_rcu(); %s" read write
       else
         Printf.sprintf "rcu_read_lock(); %s %s rcu_read_unlock();" read write)
  in
  Litmus.parse
    (Printf.sprintf "C RCU-%s\n{ }\n%s\nexists (%s)\n" word
       (String.concat "\n" (List.init n thread))
       (String.concat " /\\ " (List.init n (Printf.sprintf "%d:r0=1"))))

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

let explanation_text (test : Litmus.Ast.t) =
  let test_name = test.Litmus.Ast.name in
  let r = run_explained test in
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
  check_golden "MP+wmb+rmb.explain.txt"
    (explanation_text (battery "MP+wmb+rmb"))

let test_golden_sb () =
  check_golden "SB+mbs.explain.txt" (explanation_text (battery "SB+mbs"))

let test_golden_rcu () =
  check_golden "RCU-MP.explain.txt" (explanation_text (battery "RCU-MP"))

(* A three-link cycle: the rcu step decomposes through rcu-path's
   Kleene stages down to po, crit^-1 and rfe edges. *)
let test_golden_rcu_ggr () =
  check_golden "RCU-ggr.explain.txt" (explanation_text (rcu_cycle "ggr"))

(* Every battery explanation under lk.cat.  This pins the order of the
   descent (the first union branch holding an edge, strict midpoints
   before degenerate ones), which decides each explanation where
   several derivations exist. *)
let test_golden_battery () =
  check_golden "battery.explain.txt"
    (String.concat ""
       (List.filter_map
          (fun (e : Harness.Battery.entry) ->
            let r = run_explained (Harness.Battery.test_of e) in
            match r.Exec.Check.explanations with
            | [] -> None
            | es ->
                Some
                  (Printf.sprintf "== %s\n%s\n" e.Harness.Battery.name
                     (String.concat "\n" (List.map Exec.Explain.to_string es))))
          Harness.Battery.all))

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

(* Every word over {g, r} of length 1 to 5 with at least as many grace
   periods as critical sections: the cycles LK forbids. *)
let rcu_words =
  let rec words n =
    if n = 0 then [ "" ]
    else List.concat_map (fun w -> [ w ^ "g"; w ^ "r" ]) (words (n - 1))
  in
  let count c w =
    String.fold_left (fun n c' -> if c' = c then n + 1 else n) 0 w
  in
  List.concat_map words [ 1; 2; 3; 4; 5 ]
  |> List.filter (fun w -> count 'g' w >= count 'r' w)

(* The names lk.cat defines, [rcu-path] among them: a prim carrying one
   is an edge the decomposition did not split. *)
let lk_defined =
  lazy
    (List.concat_map
       (function
         | Cat.Ast.Let (bs, _) -> List.map (fun (x, _, _) -> x) bs
         | Cat.Ast.Check _ -> [])
       (Lazy.force lk_cat).Cat.Ast.stmts)

(* Each cycle is forbidden, and under both explainers each explanation
   re-validates and reaches primitive edges: [rcu-path] is a least
   fixpoint, entered at the Kleene stage below the edge, so its
   decomposition cannot stop on a recursive name.  The one-thread cycle
   reads its own later write, which coherence forbids: its explanation
   names sc-per-variable, every longer one names rcu. *)
let test_rcu_cycles () =
  let model = Lazy.force lk_cat in
  Alcotest.(check int) "35 words" 35 (List.length rcu_words);
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
          Alcotest.(check bool)
            (what ^ ": within 0.25 s of CPU")
            true (cpu < 0.25);
          match (r.Exec.Check.verdict, r.Exec.Check.counterexample) with
          | Exec.Check.Forbid, Some cex ->
              let resolve = Cat.Explain.resolver model cex in
              List.iter (Exec.Explain.validate ~resolve)
                r.Exec.Check.explanations;
              let check =
                if String.length word = 1 then "sc-per-variable" else "rcu"
              in
              Alcotest.(check bool) (what ^ ": names " ^ check) true
                (List.exists
                   (fun (e : Exec.Explain.t) -> e.Exec.Explain.check = check)
                   r.Exec.Check.explanations);
              List.iter
                (fun (e : Exec.Explain.t) ->
                  List.iter
                    (fun (s : Exec.Explain.step) ->
                      List.iter
                        (fun (p : Exec.Explain.prim) ->
                          let l = p.Exec.Explain.p_label in
                          let l =
                            if Filename.check_suffix l "^-1" then
                              Filename.chop_suffix l "^-1"
                            else l
                          in
                          if List.mem l (Lazy.force lk_defined) then
                            Alcotest.failf "%s: %s step %s keeps prim %s" what
                              e.Exec.Explain.check s.Exec.Explain.label l)
                        s.Exec.Explain.prims)
                    e.Exec.Explain.steps)
                r.Exec.Check.explanations
          | _ -> Alcotest.failf "%s: expected a Forbid counterexample" what)
        [ true; false ])
    rcu_words

(* A group of two recursive names, each referring to the other: an edge
   is ranked by the group's joint Kleene stage, so the descent through
   [r] and [s] alternates down to po and fr edges.  Ranked by stages in
   which only the name's own slot moves, [s ; s] hands the descent the
   same edges back and it never ends. *)
let test_mutual_recursion () =
  let model =
    Cat.parse
      {|"mutual recursion"
let rec r = po | fr | (s ; s)
and s = r
acyclic r as cyc
|}
  in
  let r =
    Exec.Oracle.run ~backend:Exec.Check.Enum
      ~explainer:(Cat.Explain.explainer model)
      (Cat.to_oracle ~name:"mutual" model)
      (battery "SB")
  in
  match (r.Exec.Check.verdict, r.Exec.Check.counterexample) with
  | Exec.Check.Forbid, Some cex ->
      let resolve = Cat.Explain.resolver model cex in
      List.iter (Exec.Explain.validate ~resolve) r.Exec.Check.explanations;
      let labels =
        List.concat_map
          (fun (e : Exec.Explain.t) ->
            List.concat_map
              (fun (s : Exec.Explain.step) ->
                List.map
                  (fun (p : Exec.Explain.prim) -> p.Exec.Explain.p_label)
                  s.Exec.Explain.prims)
              e.Exec.Explain.steps)
          r.Exec.Check.explanations
      in
      Alcotest.(check (list string)) "prims are po and fr" [ "fr"; "po" ]
        (List.sort_uniq compare labels)
  | _ -> Alcotest.fail "SB: expected a Forbid counterexample"

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
          Alcotest.test_case "RCU-ggr text" `Quick test_golden_rcu_ggr;
          Alcotest.test_case "battery text" `Quick test_golden_battery;
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
            test_rcu_cycles;
          Alcotest.test_case "mutual recursion explains" `Quick
            test_mutual_recursion;
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
