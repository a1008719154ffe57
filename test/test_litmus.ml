(* Tests for the litmus language: lexer, parser, printer round-trips,
   and the static helpers (globals, addresses, init values). *)

open Litmus.Ast

let parse = Litmus.parse

(* ------------------------------------------------------------------ *)
(* Parsing basics                                                      *)
(* ------------------------------------------------------------------ *)

let mp_src =
  {|C MP
{ x=0; y=0; }
P0(int *x, int *y) {
  WRITE_ONCE(x, 1);
  WRITE_ONCE(y, 1);
}
P1(int *x, int *y) {
  int r1 = READ_ONCE(y);
  int r2 = READ_ONCE(x);
}
exists (1:r1=1 /\ 1:r2=0)|}

let test_parse_mp () =
  let t = parse mp_src in
  Alcotest.(check string) "name" "MP" t.name;
  Alcotest.(check int) "threads" 2 (Array.length t.threads);
  Alcotest.(check int) "P0 instrs" 2 (List.length t.threads.(0));
  Alcotest.(check int) "P1 instrs" 2 (List.length t.threads.(1));
  match t.threads.(1) with
  | [ Read (R_once, "r1", Sym "y"); Read (R_once, "r2", Sym "x") ] -> ()
  | _ -> Alcotest.fail "P1 shape"

let test_parse_star_locations () =
  (* herd writes locations as *x; both forms must parse identically *)
  let t1 = parse "C a\n{ }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)" in
  let t2 = parse "C a\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }\nexists (x=1)" in
  Alcotest.(check bool) "same instrs" true (t1.threads = t2.threads)

let test_parse_fences () =
  let t =
    parse
      {|C f
{ }
P0(int *x) {
  smp_mb();
  smp_rmb();
  smp_wmb();
  smp_read_barrier_depends();
  rcu_read_lock();
  rcu_read_unlock();
  synchronize_rcu();
}
exists (x=0)|}
  in
  let expected =
    [
      Fence F_mb; Fence F_rmb; Fence F_wmb; Fence F_rb_dep; Fence F_rcu_lock;
      Fence F_rcu_unlock; Fence F_sync_rcu;
    ]
  in
  Alcotest.(check bool) "all fences" true (t.threads.(0) = expected)

let test_parse_acquire_release () =
  let t =
    parse
      {|C ra
{ }
P0(int *x, int *y) {
  int r1 = smp_load_acquire(y);
  smp_store_release(x, 2);
  rcu_assign_pointer(y, 3);
}
exists (x=2)|}
  in
  match t.threads.(0) with
  | [
   Read (R_acquire, "r1", Sym "y");
   Write (W_release, Sym "x", Const 2);
   Write (W_release, Sym "y", Const 3);
  ] ->
      ()
  | _ -> Alcotest.fail "acquire/release shape"

let test_parse_xchg () =
  let t =
    parse
      {|C xc
{ }
P0(int *x) {
  int r1 = xchg(x, 1);
  int r2 = xchg_relaxed(x, 2);
  int r3 = xchg_acquire(x, 3);
  int r4 = xchg_release(x, 4);
}
exists (x=4)|}
  in
  match t.threads.(0) with
  | [
   Xchg (X_full, "r1", Sym "x", Const 1);
   Xchg (X_relaxed, "r2", Sym "x", Const 2);
   Xchg (X_acquire, "r3", Sym "x", Const 3);
   Xchg (X_release, "r4", Sym "x", Const 4);
  ] ->
      ()
  | _ -> Alcotest.fail "xchg shape"

let test_parse_atomics () =
  let t =
    parse
      {|C at
{ c=0; }
P0(int *c) {
  int r1 = atomic_add_return(2, c);
  int r2 = cmpxchg(c, 2, 5);
  atomic_add(3, c);
  atomic_inc(c);
  atomic_dec(c);
}
exists (0:r1=2)|}
  in
  match t.threads.(0) with
  | [
   Atomic_add_return (X_full, "r1", Sym "c", Const 2);
   Cmpxchg (X_full, "r2", Sym "c", Const 2, Const 5);
   Atomic_add (Sym "c", Const 3);
   Atomic_add (Sym "c", Const 1);
   Atomic_add (Sym "c", Const (-1));
  ] ->
      ()
  | _ -> Alcotest.fail "atomic ops shape"

let test_parse_deref_register () =
  let t =
    parse
      {|C dr
{ y=&z; z=0; }
P0(int *y) {
  int r1 = READ_ONCE(y);
  int r2 = READ_ONCE(*r1);
}
exists (0:r2=0)|}
  in
  match t.threads.(0) with
  | [ Read (R_once, "r1", Sym "y"); Read (R_once, "r2", Deref "r1") ] -> ()
  | _ -> Alcotest.fail "deref shape"

let test_parse_if_else () =
  let t =
    parse
      {|C br
{ }
P0(int *x, int *y) {
  int r1 = READ_ONCE(x);
  if (r1 == 1) {
    WRITE_ONCE(y, 1);
  } else {
    WRITE_ONCE(y, 2);
  }
}
exists (y=1)|}
  in
  match t.threads.(0) with
  | [ Read _; If (Binop (Eq, Reg "r1", Const 1), [ Write _ ], [ Write _ ]) ]
    ->
      ()
  | _ -> Alcotest.fail "if shape"

let test_parse_quantifiers () =
  let base = "C q\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }\n" in
  Alcotest.(check bool) "exists" true
    ((parse (base ^ "exists (x=1)")).quant = Q_exists);
  Alcotest.(check bool) "~exists" true
    ((parse (base ^ "~exists (x=1)")).quant = Q_not_exists);
  Alcotest.(check bool) "forall" true
    ((parse (base ^ "forall (x=1)")).quant = Q_forall)

let test_parse_cond_operators () =
  let t =
    parse
      "C c\n{ }\nP0(int *x) { int r1 = READ_ONCE(x); }\n\
       exists (0:r1=1 \\/ ~(x=2 /\\ 0:r1=0))"
  in
  match t.cond with
  | Or (Atom (Reg_eq (0, "r1", VInt 1)), Not (And (_, _))) -> ()
  | _ -> Alcotest.fail "condition shape"

let test_parse_addr_values () =
  let t =
    parse "C a\n{ y=&z; }\nP0(int *y) { WRITE_ONCE(y, &w); }\nexists (y=&w)"
  in
  Alcotest.(check bool) "init &z" true (List.assoc "y" t.init = VAddr "z");
  match (t.threads.(0), t.cond) with
  | [ Write (W_once, Sym "y", Addr "w") ], Atom (Mem_eq ("y", VAddr "w")) ->
      ()
  | _ -> Alcotest.fail "address values"

let test_parse_errors () =
  let bad src =
    match parse src with
    | exception (Litmus.Parser.Error _ | Litmus.Lexer.Error _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "no header" true (bad "P0(int *x) { }");
  Alcotest.(check bool) "unknown register" true
    (bad "C t\n{ }\nP0(int *x) { WRITE_ONCE(x, r9); }\nexists (x=0)");
  Alcotest.(check bool) "missing cond" true
    (bad "C t\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }");
  Alcotest.(check bool) "reused location without star" true
    (bad "C t\n{ }\nP0(int *x) { int r = READ_ONCE(x); int s = READ_ONCE(r); }\nexists (x=0)")

(* Typed errors must carry the line the failure occurred on: the batch
   runner's classified reports depend on these positions. *)
let test_error_positions () =
  (match
     parse "C t\n{ x=0; }\nP0(int *x) {\n  @\n}\nexists (x=0)"
   with
  | exception Litmus.Lexer.Error (msg, line) ->
      Alcotest.(check int) "lexer error line" 4 line;
      Alcotest.(check bool) "lexer error message" true
        (String.length msg > 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bad character accepted");
  (match
     parse "C t\n{ x=0; }\nP0(int *x) {\n  WRITE_ONCE(x, 1;\n}\nexists (x=0)"
   with
  | exception Litmus.Parser.Error (msg, line) ->
      Alcotest.(check int) "parser error line" 4 line;
      Alcotest.(check bool) "parser error message" true
        (String.length msg > 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "unbalanced call accepted");
  match parse "C t\n{ x=0; }\nP0(int *x) {\n  int r1 = 99999999999999999999;\n}\nexists (x=0)" with
  | exception Litmus.Lexer.Error (_, line) ->
      Alcotest.(check int) "bad literal line" 4 line
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "overflowing literal accepted"

(* A thread naming one location twice among its parameters is rejected
   with an error naming the location; one naming each location once is
   not, whatever the declarations look like. *)
let test_duplicate_parameters () =
  let src params =
    Printf.sprintf
      "C t\n{ }\nP0(%s) { int r0 = READ_ONCE(*x); WRITE_ONCE(*y, 1); }\n\
       exists (0:r0=1)"
      params
  in
  (match parse (src "int *x, int *y, int *x") with
  | exception Litmus.Parser.Error (msg, line) ->
      Alcotest.(check int) "error line" 3 line;
      Alcotest.(check bool)
        ("message names the location: " ^ msg)
        true
        (String.starts_with ~prefix:"P0 lists location x twice" msg)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "duplicate parameter accepted");
  List.iter
    (fun params ->
      match parse (src params) with
      | t -> Alcotest.(check int) params 1 (Array.length t.threads)
      | exception e -> Alcotest.failf "%s: %s" params (Printexc.to_string e))
    [ "int *x, int *y"; "int *y, int *x"; "volatile int *x, int *y";
      "int *x, spinlock_t *s, int *y" ]

let test_comments () =
  let t =
    parse
      "C cm\n// line comment\n{ x=0; }\n/* block\ncomment */\nP0(int *x) {\n\
       WRITE_ONCE(x, 1); // trailing\n}\nexists (x=1)"
  in
  Alcotest.(check int) "one instr" 1 (List.length t.threads.(0))

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip_battery () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let t = parse e.source in
      let t' = parse (Litmus.to_string t) in
      Alcotest.(check bool)
        (e.name ^ " roundtrips")
        true
        (t.threads = t'.threads && t.cond = t'.cond && t.init = t'.init
       && t.quant = t'.quant))
    Harness.Battery.all

(* ------------------------------------------------------------------ *)
(* Static helpers                                                      *)
(* ------------------------------------------------------------------ *)

let test_globals () =
  let t = parse mp_src in
  Alcotest.(check (list string)) "globals" [ "x"; "y" ] (globals t)

let test_globals_from_cond_and_addr () =
  let t =
    parse "C g\n{ }\nP0(int *a) { WRITE_ONCE(a, &b); }\nexists (c=0)"
  in
  Alcotest.(check (list string)) "globals" [ "a"; "b"; "c" ] (globals t)

let test_addresses_distinct () =
  let t = parse mp_src in
  let addrs = List.map snd (addresses t) in
  Alcotest.(check int) "distinct addresses" (List.length addrs)
    (List.length (List.sort_uniq compare addrs));
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun (x, a) -> global_of_address t a = Some x)
       (addresses t))

let test_init_value () =
  let t = parse "C iv\n{ x=7; y=&x; }\nP0(int *x) { WRITE_ONCE(x, 1); }\nexists (x=1)" in
  Alcotest.(check int) "x init" 7 (init_value t "x");
  Alcotest.(check int) "y init is x's address" (address_of t "x")
    (init_value t "y");
  Alcotest.(check int) "unlisted init" 0 (init_value t "z_unlisted")

let test_has_rcu () =
  Alcotest.(check bool) "MP has no rcu" false (has_rcu (parse mp_src));
  Alcotest.(check bool) "RCU-MP has rcu" true
    (has_rcu (Harness.Battery.test_of (Harness.Battery.find "RCU-MP")));
  let nested =
    parse
      "C n\n{ }\nP0(int *x) { if (1) { rcu_read_lock(); } }\nexists (x=0)"
  in
  Alcotest.(check bool) "rcu under if" true (has_rcu nested)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_errors src =
  Litmus.Lint.errors (Litmus.Lint.check_all (parse src))

let test_lint_clean_battery () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      Alcotest.(check int)
        (e.name ^ " lints clean")
        0
        (List.length (lint_errors e.source)))
    Harness.Battery.all

let test_lint_unbalanced_rcu () =
  Alcotest.(check bool) "missing unlock flagged" true
    (lint_errors
       "C t\n{ }\nP0(int *x) { rcu_read_lock(); WRITE_ONCE(x, 1); }\nexists (x=1)"
    <> []);
  Alcotest.(check bool) "stray unlock flagged" true
    (lint_errors "C t\n{ }\nP0(int *x) { rcu_read_unlock(); WRITE_ONCE(x, 1); }\nexists (x=1)"
    <> [])

let test_lint_sync_in_rscs () =
  Alcotest.(check bool) "self-deadlock flagged" true
    (lint_errors
       "C t\n{ }\nP0(int *x) { rcu_read_lock(); synchronize_rcu(); rcu_read_unlock(); }\nexists (x=0)"
    <> [])

let test_lint_condition_registers () =
  Alcotest.(check bool) "unknown register flagged" true
    (lint_errors "C t\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }\nexists (0:r9=1)"
    <> []);
  Alcotest.(check bool) "unknown thread flagged" true
    (lint_errors "C t\n{ }\nP0(int *x) { int r1 = READ_ONCE(x); }\nexists (3:r1=1)"
    <> [])

let test_lint_lock_as_data () =
  let issues =
    Litmus.Lint.check_all
      (parse
         "C t\n{ s=0; }\nP0(int *s) { spin_lock(s); WRITE_ONCE(s, 7); spin_unlock(s); }\nexists (s=0)")
  in
  Alcotest.(check bool) "mixed lock/data use warned" true
    (List.exists (fun (i : Litmus.Lint.issue) -> i.severity = `Warning) issues)

(* ------------------------------------------------------------------ *)
(* Property: builder output always reparses                            *)
(* ------------------------------------------------------------------ *)

let gen_simple_test =
  let open QCheck2.Gen in
  let loc = oneofl [ "x"; "y"; "z" ] in
  let value = int_range 0 3 in
  let instr tid k =
    oneof
      [
        map2 (fun l v -> Litmus.Build.write l v) loc value;
        map
          (fun l -> Litmus.Build.read (Printf.sprintf "r%d_%d" tid k) l)
          loc;
        oneofl [ Litmus.Build.mb; Litmus.Build.rmb; Litmus.Build.wmb ];
      ]
  in
  let thread tid =
    let* n = int_range 1 4 in
    let rec go k acc =
      if k = n then return (List.rev acc)
      else
        let* i = instr tid k in
        go (k + 1) (i :: acc)
    in
    go 0 []
  in
  let* t0 = thread 0 in
  let* t1 = thread 1 in
  return
    (Litmus.Build.make ~name:"gen" ~threads:[ t0; t1 ]
       ~exists:(Litmus.Build.m_eq "x" 0) ())

let prop_roundtrip =
  QCheck2.Test.make ~name:"generated tests print-parse roundtrip" ~count:150
    gen_simple_test (fun t ->
      let t' = parse (Litmus.to_string t) in
      t.threads = t'.threads && t.cond = t'.cond)

let () =
  Alcotest.run "litmus"
    [
      ( "parser",
        [
          Alcotest.test_case "MP" `Quick test_parse_mp;
          Alcotest.test_case "star locations" `Quick test_parse_star_locations;
          Alcotest.test_case "fences" `Quick test_parse_fences;
          Alcotest.test_case "acquire/release" `Quick
            test_parse_acquire_release;
          Alcotest.test_case "xchg" `Quick test_parse_xchg;
          Alcotest.test_case "atomics" `Quick test_parse_atomics;
          Alcotest.test_case "deref register" `Quick test_parse_deref_register;
          Alcotest.test_case "if/else" `Quick test_parse_if_else;
          Alcotest.test_case "quantifiers" `Quick test_parse_quantifiers;
          Alcotest.test_case "condition operators" `Quick
            test_parse_cond_operators;
          Alcotest.test_case "address values" `Quick test_parse_addr_values;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "duplicate parameters" `Quick
            test_duplicate_parameters;
        ] );
      ( "printer",
        [ Alcotest.test_case "battery roundtrip" `Quick roundtrip_battery ] );
      ( "helpers",
        [
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "globals from cond/addr" `Quick
            test_globals_from_cond_and_addr;
          Alcotest.test_case "addresses" `Quick test_addresses_distinct;
          Alcotest.test_case "init values" `Quick test_init_value;
          Alcotest.test_case "has_rcu" `Quick test_has_rcu;
        ] );
      ( "lint",
        [
          Alcotest.test_case "battery is clean" `Quick
            test_lint_clean_battery;
          Alcotest.test_case "unbalanced rcu" `Quick test_lint_unbalanced_rcu;
          Alcotest.test_case "sync in rscs" `Quick test_lint_sync_in_rscs;
          Alcotest.test_case "condition registers" `Quick
            test_lint_condition_registers;
          Alcotest.test_case "lock as data" `Quick test_lint_lock_as_data;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
