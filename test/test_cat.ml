(* Tests for the cat language: lexer, parser, interpreter semantics, the
   shipped models, and full agreement with the native OCaml models. *)

module I = Cat.Interp
module Iset = Rel.Iset

let parse_model = Cat.parse

(* A tiny fixed execution to evaluate expressions against. *)
let sample_exec =
  List.hd
    (Exec.of_test
       (Litmus.parse
          "C s\n{ x=0; }\nP0(int *x) { WRITE_ONCE(x, 1); }\nP1(int *x, int *y) { int r1 = READ_ONCE(x); WRITE_ONCE(y, r1); }\nexists (1:r1=1)"))

(* Every check's name and outcome on [x], through the compiled model. *)
let outcomes (model : Cat.Ast.t) x =
  let c = I.compile model in
  let holds = I.run c (I.env_of_execution c x) in
  List.concat
    (List.mapi
       (fun i -> function
         | Cat.Ast.Check (_, _, name) ->
             [ (Option.value ~default:"(unnamed)" name, holds.(i)) ]
         | Cat.Ast.Let _ -> [])
       model.stmts)

(* ------------------------------------------------------------------ *)
(* Lexer / parser                                                      *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Cat.Lexer.tokens "let a-b = rf^-1 ; [W] | co^+ & x^* ~y (* c *) 0" in
  let strs = List.map (fun (t, _) -> Cat.Lexer.to_string t) toks in
  Alcotest.(check (list string)) "tokens"
    [ "let"; "a-b"; "="; "rf"; "^-1"; ";"; "["; "W"; "]"; "|"; "co"; "^+";
      "&"; "x"; "^*"; "~"; "y"; "0"; "<eof>" ]
    strs

let test_parser_title () =
  Alcotest.(check string) "string title" "My model"
    (parse_model "\"My model\"\nempty 0 as e").Cat.Ast.title

let test_parser_precedence () =
  (* a ; b | c ; d parses as (a;b) | (c;d) *)
  let m = parse_model "\"t\"\nlet r = po ; rf | co ; fr\nempty 0 as e" in
  match m.Cat.Ast.stmts with
  | Cat.Ast.Let ([ (_, _, Cat.Ast.Union (Cat.Ast.Seq _, Cat.Ast.Seq _)) ], _)
    :: _ ->
      ()
  | _ -> Alcotest.fail "precedence"

let test_parser_postfix () =
  let m = parse_model "\"t\"\nlet r = (rf ; co)^+\nempty 0 as e" in
  match m.Cat.Ast.stmts with
  | Cat.Ast.Let ([ (_, _, Cat.Ast.Plus (Cat.Ast.Seq _)) ], _) :: _ -> ()
  | _ -> Alcotest.fail "postfix"

let test_parser_rec_and () =
  let m =
    parse_model "\"t\"\nlet rec a = b and b = a\nirreflexive a as e"
  in
  match m.Cat.Ast.stmts with
  | Cat.Ast.Let ([ _; _ ], true) :: _ -> ()
  | _ -> Alcotest.fail "rec-and"

let test_parser_errors () =
  let bad src =
    match parse_model src with
    | exception (Cat.Parser.Error _ | Cat.Lexer.Error _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing =" true (bad "\"t\"\nlet a po");
  Alcotest.(check bool) "bad hat" true (bad "\"t\"\nlet a = po^2\nempty 0");
  Alcotest.(check bool) "stray token" true (bad "\"t\"\n] let a = po")

(* Typed errors must carry the line the failure occurred on: the batch
   runner's classified reports depend on these positions. *)
let test_error_positions () =
  (match parse_model "\"t\"\nlet a = po\nlet b = ]\n" with
  | exception Cat.Parser.Error (msg, line) ->
      Alcotest.(check int) "parser error line" 3 line;
      Alcotest.(check bool) "parser error message" true
        (String.length msg > 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "stray bracket accepted");
  match parse_model "\"t\"\nlet a = po\nlet b = a @ a\n" with
  | exception Cat.Lexer.Error (msg, line) ->
      Alcotest.(check int) "lexer error line" 3 line;
      Alcotest.(check bool) "lexer error message" true
        (String.length msg > 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bad character accepted"

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)
(* ------------------------------------------------------------------ *)

let run_checks src = outcomes (parse_model src) sample_exec

let test_acyclic_check () =
  Alcotest.(check (list (pair string bool)))
    "po is acyclic"
    [ ("c", true) ]
    (run_checks "\"t\"\nacyclic po as c");
  Alcotest.(check (list (pair string bool)))
    "po U po^-1 is cyclic"
    [ ("c", false) ]
    (run_checks "\"t\"\nacyclic po | po^-1 as c")

let test_empty_check () =
  Alcotest.(check (list (pair string bool)))
    "rf nonempty; rmw empty"
    [ ("a", false); ("b", true) ]
    (run_checks "\"t\"\nempty rf as a\nempty rmw as b")

let test_brackets_and_product () =
  (* [W] ; po ; [R] vs the full product *)
  Alcotest.(check (list (pair string bool)))
    "bracket filtering"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty ([W] ; po ; [R]) \\ (W * R) as c")

let test_set_operations () =
  Alcotest.(check (list (pair string bool)))
    "M = R | W"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty (R | W) \\ M as c");
  Alcotest.(check (list (pair string bool)))
    "W & R empty"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty W & R as c")

let test_fr_from_primitives () =
  Alcotest.(check (list (pair string bool)))
    "fr = rf^-1;co minus id"
    [ ("c", true) ]
    (run_checks
       "\"t\"\nlet myfr = (rf^-1 ; co) \\ id\nempty (myfr \\ fr) | (fr \\ myfr) as c")

let test_function_application () =
  Alcotest.(check (list (pair string bool)))
    "A-cumul"
    [ ("c", true) ]
    (run_checks
       "\"t\"\nlet f(r) = rfe? ; r\nempty (f(po) \\ (rfe? ; po)) as c")

let test_rec_fixpoint () =
  (* transitive closure by recursion: rec tc = po | tc;tc equals po^+ *)
  Alcotest.(check (list (pair string bool)))
    "recursive closure"
    [ ("c", true) ]
    (run_checks
       "\"t\"\nlet rec tc = po | (tc ; tc)\nempty (tc \\ po^+) | (po^+ \\ tc) as c")

let test_complement () =
  Alcotest.(check (list (pair string bool)))
    "~0 is the full product"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty (_ * _) \\ ~0 as c")

let test_unbound_identifier () =
  match outcomes (parse_model "\"t\"\nempty nonsuch as c") sample_exec with
  | exception I.Type_error _ -> ()
  | _ -> Alcotest.fail "expected type error"

let test_type_errors () =
  (match outcomes (parse_model "\"t\"\nempty W * po as c") sample_exec with
  | exception I.Type_error _ -> ()
  | _ -> Alcotest.fail "relation used as set");
  match
    outcomes (parse_model "\"t\"\nlet f(r) = r\nempty f as c") sample_exec
  with
  | exception I.Type_error _ -> ()
  | _ -> Alcotest.fail "function used as relation"

(* ------------------------------------------------------------------ *)
(* Shipped models                                                      *)
(* ------------------------------------------------------------------ *)

let test_stdmodels_parse () =
  List.iter
    (fun (name, _, src) ->
      match parse_model src with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s does not parse: %s" name (Printexc.to_string e))
    Cat.Stdmodels.all

let test_models_dir_in_sync () =
  (* models/*.cat are generated from Stdmodels; keep them identical *)
  List.iter
    (fun (_, file, src) ->
      let path = Filename.concat "../../../models" file in
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let disk = really_input_string ic n in
        close_in ic;
        Alcotest.(check bool) (file ^ " in sync") true (disk = src)
      end)
    Cat.Stdmodels.all

let test_lk_cat_named_checks () =
  let outcomes = Cat_ref.outcomes (Lazy.force Cat.lk) sample_exec in
  let names = List.map (fun (o : Cat_ref.outcome) -> o.check_name) outcomes in
  Alcotest.(check (list string)) "five named axioms"
    [ "sc-per-variable"; "atomicity"; "happens-before"; "propagates-before";
      "rcu" ]
    names

(* Full agreement between cat and native models over every candidate
   execution of the battery: the compiled scalar engine and the
   reference interpreter alike. *)
let test_cat_native_agreement () =
  let pairs =
    [
      ("LK", Cat.Stdmodels.lk, (module Lkmm : Exec.Check.MODEL));
      ("SC", Cat.Stdmodels.sc, (module Models.Sc));
      ("x86-TSO", Cat.Stdmodels.tso, (module Models.Tso));
      ("C11", Cat.Stdmodels.c11, (module Models.C11));
      ("C11-psc", Cat.Stdmodels.c11_psc, (module Models.C11.Strengthened));
    ]
  in
  List.iter
    (fun (name, src, native) ->
      let cat_model = parse_model src in
      let module N = (val native : Exec.Check.MODEL) in
      let (module C : Exec.Check.MODEL) =
        Exec.Oracle.model (Cat.to_oracle ~name cat_model) ()
      in
      List.iter
        (fun (e : Harness.Battery.entry) ->
          List.iter
            (fun x ->
              Alcotest.(check bool)
                (Printf.sprintf "%s agrees on %s" name e.name)
                (N.consistent x) (C.consistent x);
              Alcotest.(check bool)
                (Printf.sprintf "%s reference agrees on %s" name e.name)
                (N.consistent x) (Cat_ref.consistent cat_model x))
            (Exec.of_test (Harness.Battery.test_of e)))
        Harness.Battery.all)
    pairs

let test_cat_native_agreement_generated () =
  let rng = Random.State.make [| 5 |] in
  let tests = Diygen.sample ~vocabulary:Diygen.Edge.vocabulary ~rng ~count:25 4 in
  let (module Lk_cat : Exec.Check.MODEL) =
    Exec.Oracle.model
      (Cat.to_oracle ~name:"LK(cat)" (parse_model Cat.Stdmodels.lk))
      ()
  in
  List.iter
    (fun t ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (t.Litmus.Ast.name ^ ": cat agrees")
            (Lkmm.consistent x) (Lk_cat.consistent x))
        (Exec.of_test t))
    tests

(* ------------------------------------------------------------------ *)
(* Random models: the compiled engine decides as the reference         *)
(* ------------------------------------------------------------------ *)

module A = Cat.Ast

let set_names =
  [ "_"; "W"; "R"; "M"; "F"; "IW"; "Once"; "Acquire"; "Release"; "Rmb";
    "Wmb"; "Mb"; "Rb-dep"; "Sync"; "Rcu-lock"; "Rcu-unlock" ]

let predefined_rels =
  I.witness_names
  @ [ "po"; "addr"; "data"; "ctrl"; "rmw"; "po-loc"; "loc"; "int"; "ext";
      "id"; "crit" ]

let gen_set sets =
  let open QCheck2.Gen in
  fix (fun self n ->
      let two op = map2 op (self (n / 2)) (self (n / 2)) in
      if n <= 0 then map (fun s -> A.Id s) (oneofl sets)
      else
        frequency
          [
            (3, self 0);
            (1, two (fun a b -> A.Union (a, b)));
            (1, two (fun a b -> A.Inter (a, b)));
            (1, two (fun a b -> A.Diff (a, b)));
            (1, map (fun a -> A.Complement a) (self (n - 1)));
          ])

(* Relation expressions over the predefined names, the model's own
   [defined] names (drawn more often, so that the checks reach the
   recursive and applied definitions) and the sets [sets], using every
   operator of the dialect; [app] adds applications of the unary [f]. *)
let gen_rel ?(app = false) ~sets defined =
  let open QCheck2.Gen in
  let ids names = map (fun r -> A.Id r) (oneofl names) in
  fix (fun self n ->
      let leaf =
        frequency
          ([
             (6, ids (defined @ predefined_rels));
             (1, pure A.Empty_rel);
             (1, map (fun s -> A.Bracket s) (gen_set sets 1));
           ]
          @ if defined = [] then [] else [ (3, ids defined) ])
      in
      let two op = map2 op (self (n / 2)) (self (n / 2)) in
      let one op = map op (self (n - 1)) in
      if n <= 0 then leaf
      else
        frequency
          ([
             (3, leaf);
             (2, two (fun a b -> A.Union (a, b)));
             (1, two (fun a b -> A.Inter (a, b)));
             (1, two (fun a b -> A.Diff (a, b)));
             (3, two (fun a b -> A.Seq (a, b)));
             ( 1,
               map2
                 (fun a b -> A.Cartesian (a, b))
                 (gen_set sets 1) (gen_set sets 1) );
             (1, one (fun a -> A.Inverse a));
             (1, one (fun a -> A.Plus a));
             (1, one (fun a -> A.Star a));
             (1, one (fun a -> A.Opt a));
             (2, one (fun a -> A.Complement a));
             (1, map (fun s -> A.Bracket s) (gen_set sets (n - 1)));
           ]
          @ if app then [ (2, one (fun a -> A.App ("f", a))) ] else []))

(* The name [x] combined with an expression, on either side of an
   operator that keeps [x]'s edges relevant. *)
let gen_with x gen =
  let open QCheck2.Gen in
  let x = A.Id x in
  let* e = gen in
  oneofl [ A.Seq (x, e); A.Seq (e, x); A.Inter (x, e); A.Diff (x, e) ]

(* One ill-typed subterm, so that the message does not depend on which
   operand an engine coerces first. *)
let type_errors =
  [
    A.Bracket (A.Id "rf");
    A.Cartesian (A.Id "W", A.Seq (A.Id "po", A.Id "co"));
    A.Id "nonsuch";
    A.Id "f";
    A.App ("a", A.Id "rf");
  ]

(* A set [s], a relation [a], a function [f] of one relation, a
   recursive [p] monotone in itself, [f] applied to a witness-dependent
   argument, then one check of each kind in random order, each on a
   witness relation combined with an expression over all of them (an
   [empty] check may take a set instead).  After the first check, [a]
   is rebound to an expression over itself and a witness relation: the
   later checks read the new, dynamic [a], while [f]'s body, inlined in
   them, still reads the static one of its definition.  One model in
   ten carries a type error. *)
let gen_model =
  let open QCheck2.Gen in
  let sets = "s" :: set_names in
  let* s = gen_set set_names 2 in
  let* a = gen_rel ~sets [] 3 in
  let* f = gen_with "x" (gen_rel ~sets [ "a" ] 2) in
  let* base = gen_rel ~sets [ "a" ] 2 in
  let* step =
    let p = A.Id "p" and e = gen_rel ~sets [ "a" ] 1 in
    oneof
      [
        map (fun e -> A.Seq (p, e)) e;
        map (fun e -> A.Seq (e, p)) e;
        map (fun e -> A.Inter (p, e)) e;
        map (fun e -> A.Diff (p, e)) e;
        pure (A.Seq (p, p));
        pure (A.Plus (A.Inverse p));
      ]
  in
  let* arg = gen_with "rf" (gen_rel ~sets [ "a" ] 2) in
  let* kinds = shuffle_l [ A.Acyclic; A.Irreflexive; A.Is_empty ] in
  let* bodies =
    list_repeat 3
      (let* w = oneofl I.witness_names in
       gen_with w (gen_rel ~app:true ~sets [ "a"; "p"; "b" ] 3))
  in
  let* shadow =
    let* w = oneofl I.witness_names in
    gen_with "a" (gen_with w (gen_rel ~sets [ "a" ] 1))
  in
  let* set_body = option ~ratio:0.25 (gen_set sets 3) in
  let* error = option ~ratio:0.1 (oneofl type_errors) in
  let checks =
    List.mapi
      (fun i (kind, e) ->
        let e =
          match (kind, set_body) with A.Is_empty, Some s -> s | _ -> e
        in
        let e =
          match error with Some bad when i = 2 -> A.Union (bad, e) | _ -> e
        in
        A.Check (kind, e, Some (Printf.sprintf "c%d" i)))
      (List.combine kinds bodies)
  in
  pure
    {
      A.title = "random";
      stmts =
        [
          A.Let ([ ("s", [], s) ], false);
          A.Let ([ ("a", [], a) ], false);
          A.Let ([ ("f", [ "x" ], f) ], false);
          A.Let ([ ("p", [], A.Union (base, step)) ], true);
          A.Let ([ ("b", [], A.App ("f", arg)) ], false);
        ]
        @ List.hd checks
          :: A.Let ([ ("a", [], shadow) ], false)
          :: List.tl checks;
    }

let print_model (m : A.t) =
  let stmt = function
    | A.Let (bs, is_rec) ->
        (if is_rec then "let rec " else "let ")
        ^ String.concat " and "
            (List.map
               (fun (n, ps, e) ->
                 (if ps = [] then n
                  else Printf.sprintf "%s(%s)" n (String.concat ", " ps))
                 ^ " = " ^ Cat.Explain.render e)
               bs)
    | A.Check (kind, e, name) ->
        (match kind with
        | A.Acyclic -> "acyclic "
        | A.Irreflexive -> "irreflexive "
        | A.Is_empty -> "empty ")
        ^ Cat.Explain.render e
        ^ Option.fold ~none:"" ~some:(( ^ ) " as ") name
  in
  String.concat "\n" (List.map stmt m.stmts)

(* Four threads, release and rmb, RCU, an rmw with incoherent
   candidates, and three writers to one location. *)
let random_model_tests =
  lazy
    (List.map
       (fun n -> Harness.Battery.test_of (Harness.Battery.find n))
       [ "IRIW"; "WRC+po-rel+rmb"; "RCU+2rscs+2gp"; "SB+xchg-mb"; "Z6-0" ])

let engine_key oracle test =
  match Exec.Oracle.run oracle test with
  | (r : Exec.Check.result) ->
      Ok
        ( (r.verdict, r.n_candidates, r.n_prefiltered, r.n_consistent),
          (r.n_matching, r.outcomes),
          Option.map
            (fun (x : Exec.t) -> (Rel.to_list x.rf, Rel.to_list x.co))
            r.witness )
  | exception I.Type_error msg -> Error msg

(* The compiled engine decides every random model as the reference
   interpreter does, down to the witness, or raise the same type error:
   names resolved to slots at compile time (a rebound [a] included),
   functions inlined in their definition's scope, statics run once per
   shape. *)
let prop_reference =
  QCheck2.Test.make ~name:"compiled = reference on random models" ~count:400
    ~print:print_model gen_model (fun model ->
      let oracle = Cat.to_oracle ~name:"random" model
      and reference = Cat_ref.oracle ~name:"random" model in
      List.for_all
        (fun test -> engine_key oracle test = engine_key reference test)
        (Lazy.force random_model_tests))

(* Function uses the random models do not draw — an alias, a function
   argument, a function result, a parameter named like a global, a
   name rebound after a function reads it, [and] groups, shadowed
   functions — and every type error compilation defers to evaluation:
   the compiled engine decides each as the reference does, or raises
   its message. *)
let edge_models =
  let same a b = Printf.sprintf "empty (%s \\ %s) | (%s \\ %s)" a b b a in
  [
    "let f(x) = x ; po\nlet g = f\n" ^ same "g(rf)" "(rf ; po)" ^ " as c";
    "let f(x) = x ; po\nlet h(k) = k(rf)\n" ^ same "h(f)" "(rf ; po)" ^ " as c";
    "let f(x) = x ; po\nlet h(y) = f\nlet g = h(co)\n"
    ^ same "g(rf)" "(rf ; po)" ^ " as c";
    "let a = po\nlet f(a) = a ; rf\n" ^ same "f(co)" "(co ; rf)" ^ " as c";
    "let a = po\nlet f(x) = x ; a\nlet a = co\n"
    ^ same "f(rf)" "(rf ; po)" ^ " as c\n" ^ same "a" "co" ^ " as d";
    "let f(x) = x ; po\nlet b = f(rf)\nlet f(x) = x ; co\n"
    ^ same "b" "(rf ; po)" ^ " as c\n" ^ same "f(fr)" "(fr ; co)" ^ " as d";
    "let rec a = po | (a ; b) and b = a ; rf\nacyclic a | b as c";
    "let a = po and b = a\nempty b as c";
    "let f(x, y) = x\nempty f(po) as c";
    "let rec f(x) = x\nempty po as c";
    "let f(x) = x\nlet rec a = po and g = f\nempty a as c";
    "let f(x) = x\nempty [f] as c";
    "empty nosuch(po) as c";
    "let a = po\nempty a(rf) as c";
    "let h(k) = k(rf)\nempty h(po) as c";
  ]

let test_edge_models () =
  List.iter
    (fun src ->
      let model = parse_model ("\"edge\"\n" ^ src) in
      let oracle = Cat.to_oracle ~name:"edge" model
      and reference = Cat_ref.oracle ~name:"edge" model in
      List.iter
        (fun test ->
          Alcotest.(check bool)
            (src ^ ": as the reference")
            true
            (engine_key oracle test = engine_key reference test))
        (Lazy.force random_model_tests))
    edge_models

let () =
  Alcotest.run "cat"
    [
      ( "syntax",
        [
          Alcotest.test_case "lexer" `Quick test_lexer_tokens;
          Alcotest.test_case "title" `Quick test_parser_title;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "postfix" `Quick test_parser_postfix;
          Alcotest.test_case "rec-and" `Quick test_parser_rec_and;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "acyclic" `Quick test_acyclic_check;
          Alcotest.test_case "empty" `Quick test_empty_check;
          Alcotest.test_case "brackets/product" `Quick
            test_brackets_and_product;
          Alcotest.test_case "set operations" `Quick test_set_operations;
          Alcotest.test_case "fr from primitives" `Quick
            test_fr_from_primitives;
          Alcotest.test_case "functions" `Quick test_function_application;
          Alcotest.test_case "rec fixpoint" `Quick test_rec_fixpoint;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "unbound id" `Quick test_unbound_identifier;
          Alcotest.test_case "type errors" `Quick test_type_errors;
        ] );
      ( "models",
        [
          Alcotest.test_case "stdmodels parse" `Quick test_stdmodels_parse;
          Alcotest.test_case "models dir in sync" `Quick
            test_models_dir_in_sync;
          Alcotest.test_case "lk.cat named checks" `Quick
            test_lk_cat_named_checks;
          Alcotest.test_case "cat = native (battery)" `Slow
            test_cat_native_agreement;
          Alcotest.test_case "cat = native (generated)" `Slow
            test_cat_native_agreement_generated;
        ] );
      ( "engines",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reference ]
        @ [
            Alcotest.test_case "compiled = reference on edge models" `Quick
              test_edge_models;
          ] );
    ]
