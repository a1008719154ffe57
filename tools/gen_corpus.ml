(* Writes the litmus corpus and its golden verdict manifest. *)
let () =
  let dir = "corpus" in
  let rng = Random.State.make [| 2018 |] in
  let tests =
    Diygen.generate ~vocabulary:Diygen.Edge.core_vocabulary 4
    @ Diygen.sample ~vocabulary:Diygen.Edge.vocabulary ~rng ~count:80 5
    @ Diygen.sample ~vocabulary:Diygen.Edge.core_vocabulary ~rng ~count:30 6
  in
  let oc = open_out (Filename.concat dir "MANIFEST") in
  Printf.fprintf oc
    "# test-file  LK-verdict  C11-verdict(or -)  (golden, regenerate with tools/gen_corpus)\n";
  List.iter
    (fun (t : Litmus.Ast.t) ->
      let file = String.map (function '+' -> '-' | c -> c) t.name ^ ".litmus" in
      let path = Filename.concat dir file in
      let o = open_out path in
      output_string o (Litmus.to_string t);
      close_out o;
      let lk, c11 = Harness.Table5.check t in
      let verdict (r : Exec.Check.result) =
        Exec.Check.verdict_to_string r.verdict
      in
      Printf.fprintf oc "%s %s %s\n" file (verdict lk)
        (Option.fold ~none:"-" ~some:verdict c11))
    tests;
  close_out oc;
  Printf.printf "wrote %d corpus tests\n" (List.length tests)
