(* explain_report: HTML gallery of verdict forensics over a set of
   litmus tests.

     dune exec tools/explain_report.exe -- -o DIR corpus/*.litmus
     dune exec tools/explain_report.exe -- -o DIR -model c11 -j 4 FILES...

   Runs every test with the explainer on and writes, under the output
   directory, one provenance-annotated DOT diagram per forbidden test
   (the counterexample with its violating cycle in bold red) plus an
   index.html: per-check failure totals, and for each forbidden test
   the named failed checks, the textual explanation and the DOT source.
   [-j N] runs the checks through the process-isolated pool; the
   explanations marshal back with the entries. *)

let usage () =
  prerr_endline
    "usage: explain_report [-o DIR] [-model MODEL] [-j N] TEST.litmus...";
  exit 124

let html_escape s =
  let buf = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* stable, filesystem-safe name for a test's diagram *)
let slug id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '+' | '.' -> c
      | _ -> '_')
    (Filename.remove_extension (Filename.basename id))

let () =
  let out = ref "explain_report"
  and model = ref "lk"
  and jobs = ref 1
  and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "-o" :: d :: rest -> out := d; parse rest
    | "-model" :: m :: rest -> model := m; parse rest
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        files := f :: !files;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] then usage ();
  let m = Harness.Model_table.find !model in
  let factory = m.oracle and explainer = Harness.Model_table.explainer m in
  let items =
    List.map
      (fun path ->
        { Harness.Runner.id = path; source = `File path; expected = None })
      files
  in
  let report =
    if !jobs > 1 then
      Harness.Pool.run
        ~config:{ Harness.Pool.default with Harness.Pool.jobs = !jobs }
        ~explainer ~oracle:factory items
    else Harness.Runner.run ~explainer ~oracle:factory items
  in
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let buf = Buffer.create 65536 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>Verdict forensics — %s</title>\n\
     <style>\n\
     body { font-family: sans-serif; max-width: 70em; margin: 2em auto; }\n\
     pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; }\n\
     table { border-collapse: collapse; }\n\
     td, th { border: 1px solid #ccc; padding: 0.3em 0.8em; text-align: left; }\n\
     .forbid { color: #a00; } .allow { color: #060; }\n\
     details { margin: 0.5em 0; }\n\
     </style></head><body>\n"
    (html_escape !model);
  pr "<h1>Verdict forensics — model %s</h1>\n" (html_escape !model);
  (* per-check failure totals over the whole batch *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (e : Harness.Runner.entry) ->
      match e.Harness.Runner.result with
      | Some r ->
          List.iter
            (fun (x : Exec.Explain.t) ->
              let c = x.Exec.Explain.check in
              Hashtbl.replace totals c
                (1 + Option.value ~default:0 (Hashtbl.find_opt totals c)))
            r.Exec.Check.explanations
      | None -> ())
    report.Harness.Runner.entries;
  let n_explained =
    List.length
      (List.filter
         (fun (e : Harness.Runner.entry) ->
           match e.Harness.Runner.result with
           | Some r -> r.Exec.Check.explanations <> []
           | None -> false)
         report.Harness.Runner.entries)
  in
  pr "<p>%d tests: %d pass, %d fail, %d error, %d gave up — %d with \
      explained Forbid verdicts.</p>\n"
    (List.length report.Harness.Runner.entries)
    report.Harness.Runner.n_pass report.Harness.Runner.n_fail
    (report.Harness.Runner.n_error + report.Harness.Runner.n_crash)
    report.Harness.Runner.n_gave_up n_explained;
  if Hashtbl.length totals > 0 then begin
    pr "<h2>Failing checks</h2>\n<table><tr><th>check</th><th>tests</th></tr>\n";
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) totals []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.iter (fun (c, n) ->
           pr "<tr><td>%s</td><td>%d</td></tr>\n" (html_escape c) n);
    pr "</table>\n"
  end;
  (* one section per explained test, diagram written alongside *)
  List.iter
    (fun (e : Harness.Runner.entry) ->
      match e.Harness.Runner.result with
      | Some r when r.Exec.Check.explanations <> [] ->
          let id = e.Harness.Runner.item_id in
          let checks =
            List.sort_uniq compare
              (List.map
                 (fun (x : Exec.Explain.t) -> x.Exec.Explain.check)
                 r.Exec.Check.explanations)
          in
          pr "<h2 id=\"%s\">%s <span class=\"forbid\">Forbid</span></h2>\n"
            (html_escape (slug id)) (html_escape id);
          pr "<p>failed checks: %s</p>\n"
            (html_escape (String.concat ", " checks));
          List.iter
            (fun (x : Exec.Explain.t) ->
              pr "<pre>%s</pre>\n" (html_escape (Exec.Explain.to_string x)))
            r.Exec.Check.explanations;
          (match r.Exec.Check.counterexample with
          | Some x ->
              let dot =
                Exec.Dot.to_string ~explain:r.Exec.Check.explanations x
              in
              let dot_file = slug id ^ ".dot" in
              let oc = open_out (Filename.concat !out dot_file) in
              output_string oc dot;
              close_out oc;
              pr
                "<details><summary>diagram: <a href=\"%s\">%s</a> (dot; \
                 violating cycle in red)</summary><pre>%s</pre></details>\n"
                (html_escape dot_file) (html_escape dot_file)
                (html_escape dot)
          | None -> ())
      | _ -> ())
    report.Harness.Runner.entries;
  pr "</body></html>\n";
  let oc = open_out (Filename.concat !out "index.html") in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "explain_report: %d tests, %d explained; wrote %s/index.html\n"
    (List.length report.Harness.Runner.entries)
    n_explained !out;
  exit (Harness.Runner.exit_code report)
