(* Comparing the LK model with C11 (Section 5.2), SC and x86-TSO over the
   battery and a generated sweep: where the models disagree and why the LK
   kernel cannot simply adopt C11.

   Run with:  dune exec examples/model_comparison.exe *)

(* The verdicts of [t] under each model of [ms], from one check: one
   enumeration of [t] serves them all. *)
let verdicts ms t =
  List.map
    (fun r -> r.Exec.Check.verdict)
    (Exec.Check.run (List.map (fun m -> Exec.Check.model m) ms) t)

let verdict m t = List.hd (verdicts [ m ] t)
let str = Exec.Check.verdict_to_string

let () =
  Fmt.pr "== Battery verdicts across models ==@.";
  Fmt.pr "%-22s %-7s %-7s %-7s %-7s %-8s@." "test" "SC" "TSO" "LK" "C11"
    "C11-psc";
  List.iter
    (fun (e : Harness.Battery.entry) ->
      let t = Harness.Battery.test_of e in
      let vs =
        verdicts
          ((module Models.Sc) :: (module Models.Tso) :: (module Lkmm)
          ::
          (if Models.C11.applicable t then
             [ (module Models.C11); (module Models.C11.Strengthened) ]
           else []))
          t
      in
      let col i = Option.fold ~none:"-" ~some:str (List.nth_opt vs i) in
      Fmt.pr "%-22s %-7s %-7s %-7s %-7s %-8s@." e.name (col 0) (col 1) (col 2)
        (col 3) (col 4))
    Harness.Battery.all;

  Fmt.pr "@.== The three Section 5.2 discrepancies ==@.";
  let show name expect_lk expect_c11 why =
    let t = Harness.Battery.test_of (Harness.Battery.find name) in
    let lk, c11 =
      match verdicts [ (module Lkmm); (module Models.C11) ] t with
      | [ lk; c11 ] -> (lk, c11)
      | _ -> assert false
    in
    Fmt.pr "%-14s LK:%-6s C11:%-6s  %s%s@." name (str lk) (str c11) why
      (if lk = expect_lk && c11 = expect_c11 then "" else "  (UNEXPECTED)")
  in
  show "LB+ctrl+mb" Exec.Check.Forbid Exec.Check.Allow
    "LK respects control dependencies; C11 does not";
  show "RWC+mbs" Exec.Check.Forbid Exec.Check.Allow
    "smp_mb restores SC; C11's seq_cst fence originally did not";
  show "WRC+wmb+acq" Exec.Check.Allow Exec.Check.Forbid
    "C11 has no true smp_wmb: the release fence also orders reads";

  Fmt.pr
    "@.RWC+mbs under the strengthened (RC11-style) fence: %s — the repair \
     discussed in Section 5.2@."
    (str
       (verdict
          (module Models.C11.Strengthened)
          (Harness.Battery.test_of (Harness.Battery.find "RWC+mbs"))));

  Fmt.pr "@.== Quantifying the LK/C11 delta over a generated sweep ==@.";
  let rng = Random.State.make [| 51 |] in
  let tests =
    Diygen.generate ~vocabulary:Diygen.Edge.core_vocabulary 4
    @ Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:40 5
  in
  let disagreements =
    List.filter_map
      (fun t ->
        if not (Models.C11.applicable t) then None
        else
          match verdicts [ (module Lkmm); (module Models.C11) ] t with
          | [ lk; c11 ] when lk <> c11 -> Some (t, lk, c11)
          | _ -> None)
      tests
  in
  Fmt.pr "%d generated tests, %d LK/C11 disagreements, e.g.:@."
    (List.length tests)
    (List.length disagreements);
  List.iteri
    (fun i ((t : Litmus.Ast.t), lk, c11) ->
      if i < 8 then
        Fmt.pr "  %-45s LK:%-6s C11:%-6s@." t.name (str lk) (str c11))
    disagreements
