(* Tests for the reference models: SC, x86-TSO, C11 (original and
   strengthened) — the paper's comparison column and the strength ordering
   between them. *)

let parse = Litmus.parse
let battery name = Harness.Battery.test_of (Harness.Battery.find name)
let verdict m t =
  (List.hd (Exec.Check.run [ Exec.Check.model m ] t)).Exec.Check.verdict
let allow = Exec.Check.Allow
let forbid = Exec.Check.Forbid

(* ------------------------------------------------------------------ *)
(* SC                                                                  *)
(* ------------------------------------------------------------------ *)

let test_sc_forbids_all_weak () =
  List.iter
    (fun name ->
      Alcotest.(check bool) ("SC forbids " ^ name) true
        (verdict (module Models.Sc) (battery name) = forbid))
    [ "SB"; "MP"; "LB"; "WRC"; "RWC"; "PeterZ-No-Synchro"; "2+2W"; "CoRR" ]

let test_sc_allows_racy_nonweak () =
  (* both final values are SC-reachable in a race *)
  let t =
    parse
      "C r\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }\nP1(int *x) { WRITE_ONCE(x, 2); }\nexists (x=1)"
  in
  Alcotest.(check bool) "x=1 reachable" true
    (verdict (module Models.Sc) t = allow)

(* ------------------------------------------------------------------ *)
(* TSO                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tso_store_buffering () =
  Alcotest.(check bool) "SB allowed" true
    (verdict (module Models.Tso) (battery "SB") = allow);
  Alcotest.(check bool) "SB+mbs forbidden" true
    (verdict (module Models.Tso) (battery "SB+mbs") = forbid)

let test_tso_keeps_other_orders () =
  List.iter
    (fun name ->
      Alcotest.(check bool) ("TSO forbids " ^ name) true
        (verdict (module Models.Tso) (battery name) = forbid))
    [ "MP"; "LB"; "WRC"; "CoRR"; "2+2W" ]

let test_tso_peterz_no_synchro () =
  (* the x86 column of Table 5: observable via store buffering alone *)
  Alcotest.(check bool) "PeterZ-No-Synchro allowed on TSO" true
    (verdict (module Models.Tso) (battery "PeterZ-No-Synchro") = allow)

let test_tso_rwc () =
  Alcotest.(check bool) "RWC allowed on TSO" true
    (verdict (module Models.Tso) (battery "RWC") = allow)

(* ------------------------------------------------------------------ *)
(* C11: the Table 5 column                                             *)
(* ------------------------------------------------------------------ *)

let test_c11_table5_column () =
  List.iter
    (fun (e : Harness.Battery.entry) ->
      match e.c11 with
      | None -> ()
      | Some expected ->
          Alcotest.(check bool)
            ("C11 verdict for " ^ e.name)
            true
            (verdict (module Models.C11) (Harness.Battery.test_of e)
            = expected))
    Harness.Battery.all

let test_c11_not_applicable_to_rcu () =
  Alcotest.(check bool) "RCU has no C11 counterpart" false
    (Models.C11.applicable (battery "RCU-MP"));
  Alcotest.(check bool) "MP maps fine" true
    (Models.C11.applicable (battery "MP"))

let test_c11_ignores_dependencies () =
  (* LB+datas: forbidden by LK (hardware never speculates into stores),
     allowed by C11 relaxed atomics — the out-of-thin-air weakness *)
  Alcotest.(check bool) "LB+datas allowed by C11" true
    (verdict (module Models.C11) (battery "LB+datas") = allow);
  Alcotest.(check bool) "LB+datas forbidden by LK" true
    (verdict (module Lkmm) (battery "LB+datas") = forbid)

let test_c11_release_acquire () =
  Alcotest.(check bool) "MP+po-rel+acq forbidden" true
    (verdict (module Models.C11) (battery "MP+po-rel+acq") = forbid)

let test_c11_fence_sw () =
  (* MP via fence-to-fence synchronizes-with *)
  Alcotest.(check bool) "MP+wmb+rmb forbidden (fence sw)" true
    (verdict (module Models.C11) (battery "MP+wmb+rmb") = forbid)

let test_strengthened_fences () =
  (* the RC11-style psc flips exactly the SC-fence weaknesses *)
  Alcotest.(check bool) "RWC+mbs: orig allows" true
    (verdict (module Models.C11) (battery "RWC+mbs") = allow);
  Alcotest.(check bool) "RWC+mbs: psc forbids" true
    (verdict (module Models.C11.Strengthened) (battery "RWC+mbs") = forbid);
  Alcotest.(check bool) "SB+mbs: psc forbids" true
    (verdict (module Models.C11.Strengthened) (battery "SB+mbs") = forbid);
  Alcotest.(check bool) "PeterZ: orig allows" true
    (verdict (module Models.C11) (battery "PeterZ") = allow);
  Alcotest.(check bool) "PeterZ: psc forbids" true
    (verdict (module Models.C11.Strengthened) (battery "PeterZ") = forbid);
  (* but psc still does not recover dependencies *)
  Alcotest.(check bool) "LB+ctrl+mb: psc still allows" true
    (verdict (module Models.C11.Strengthened) (battery "LB+ctrl+mb") = allow)

(* ------------------------------------------------------------------ *)
(* Strength ordering as a sweep property                               *)
(* ------------------------------------------------------------------ *)

let test_strength_ordering () =
  let rng = Random.State.make [| 77 |] in
  let tests =
    List.map Harness.Battery.test_of Harness.Battery.all
    @ Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:40 4
  in
  Alcotest.(check (list string)) "SC >= TSO >= LK" []
    (Harness.Sweep.strength_issues tests)

let test_psc_stronger_than_orig () =
  (* every execution consistent under psc fences is consistent under the
     original semantics (strengthening only removes behaviours) *)
  let rng = Random.State.make [| 78 |] in
  let tests =
    Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:30 4
  in
  List.iter
    (fun t ->
      if Models.C11.applicable t then
        List.iter
          (fun x ->
            if Models.C11.Strengthened.consistent x then
              Alcotest.(check bool)
                (t.Litmus.Ast.name ^ ": psc-consistent implies consistent")
                true (Models.C11.consistent x))
          (Exec.of_test t))
    tests

let () =
  Alcotest.run "models"
    [
      ( "sc",
        [
          Alcotest.test_case "forbids weak" `Quick test_sc_forbids_all_weak;
          Alcotest.test_case "allows races" `Quick test_sc_allows_racy_nonweak;
        ] );
      ( "tso",
        [
          Alcotest.test_case "store buffering" `Quick
            test_tso_store_buffering;
          Alcotest.test_case "other orders kept" `Quick
            test_tso_keeps_other_orders;
          Alcotest.test_case "PeterZ-No-Synchro" `Quick
            test_tso_peterz_no_synchro;
          Alcotest.test_case "RWC" `Quick test_tso_rwc;
        ] );
      ( "c11",
        [
          Alcotest.test_case "table 5 column" `Quick test_c11_table5_column;
          Alcotest.test_case "RCU not applicable" `Quick
            test_c11_not_applicable_to_rcu;
          Alcotest.test_case "no dependencies" `Quick
            test_c11_ignores_dependencies;
          Alcotest.test_case "release/acquire" `Quick
            test_c11_release_acquire;
          Alcotest.test_case "fence sw" `Quick test_c11_fence_sw;
          Alcotest.test_case "strengthened fences" `Quick
            test_strengthened_fences;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "SC >= TSO >= LK" `Slow test_strength_ordering;
          Alcotest.test_case "psc >= orig" `Slow test_psc_stronger_than_orig;
        ] );
    ]
