(* Golden-verdict corpus: every .litmus file under corpus/ must parse and
   produce exactly the LK and C11 verdicts recorded in the MANIFEST.
   Guards the parser, the enumeration and both models against
   regressions.  Regenerate with tools/gen_corpus after intentional model
   changes.

   The corpus runs through Harness.Runner with the default budgets, so a
   pathological corpus entry (or a model regression that makes one
   explode) surfaces as a Gave_up/Err entry in the report instead of
   hanging the test suite. *)

let corpus_dir =
  (* tests run from _build/default/test *)
  List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ]

let manifest dir =
  Harness.Runner.read_file (Filename.concat dir "MANIFEST")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ file; lk; c11 ] -> Some (file, lk, c11)
           | _ -> Alcotest.failf "bad manifest line: %s" line)

let verdict_of_manifest file = function
  | "Allow" -> Exec.Check.Allow
  | "Forbid" -> Exec.Check.Forbid
  | other -> Alcotest.failf "%s: bad manifest verdict %S" file other

let check_report label (report : Harness.Runner.report) =
  List.iter
    (fun (e : Harness.Runner.entry) ->
      match e.Harness.Runner.status with
      | Harness.Runner.Pass _ -> ()
      | status ->
          Alcotest.failf "%s: %s: %s" label e.Harness.Runner.item_id
            (Fmt.str "%a" Harness.Runner.pp_status status))
    report.Harness.Runner.entries;
  Alcotest.(check int) (label ^ " exit code") 0 (Harness.Runner.exit_code report)

let test_corpus () =
  match corpus_dir with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      let entries = manifest dir in
      Alcotest.(check bool) "corpus is substantial" true
        (List.length entries > 200);
      (* LK batch: every entry, expected verdict from the manifest *)
      let lk_items =
        List.map
          (fun (file, lk, _) ->
            {
              Harness.Runner.id = file;
              source = `File (Filename.concat dir file);
              expected = Some (verdict_of_manifest file lk);
            })
          entries
      in
      check_report "LK" (Harness.Runner.run lk_items);
      (* C11 batch: only the entries the C11 model applies to *)
      let c11_items =
        List.filter_map
          (fun (file, _, c11) ->
            let t =
              Litmus.parse
                (Harness.Runner.read_file (Filename.concat dir file))
            in
            if Models.C11.applicable t then begin
              if c11 = "-" then
                Alcotest.failf "%s: C11-applicable but manifest says -" file;
              Some
                {
                  Harness.Runner.id = file;
                  source = `Ast t;
                  expected = Some (verdict_of_manifest file c11);
                }
            end
            else begin
              if c11 <> "-" then
                Alcotest.failf "%s: not C11-applicable but manifest says %s"
                  file c11;
              None
            end)
          entries
      in
      let oracle = Exec.Oracle.of_model (module Models.C11) in
      check_report "C11" (Harness.Runner.run ~oracle c11_items)

let test_corpus_lints_clean () =
  match corpus_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun (file, _, _) ->
          let t =
            Litmus.parse (Harness.Runner.read_file (Filename.concat dir file))
          in
          Alcotest.(check int)
            (file ^ " lints clean")
            0
            (List.length (Litmus.Lint.errors (Litmus.Lint.check_all t))))
        (manifest dir)

let () =
  Alcotest.run "corpus"
    [
      ( "golden",
        [
          Alcotest.test_case "verdicts" `Slow test_corpus;
          Alcotest.test_case "lint" `Quick test_corpus_lints_clean;
        ] );
    ]
