(* Fault-isolated batch runner (robustness layer).

   Batteries, corpora and diy sweeps run thousands of tests; one
   malformed or explosive test must not take the batch down.  Each item
   runs under a fresh per-test budget with every exception caught and
   classified into a unified taxonomy (parse / lex / type / lint /
   budget / internal, with source positions when available), producing a
   structured pass/fail/error/gave-up report.

   The result types — error taxonomy, per-item entries, batch reports,
   their JSON rendering and the exit-code policy — live in {!Report}
   (the unified schema shared with {!Pool} and {!Journal}); they are
   re-exported here by equation, so [Runner.entry] and [Report.entry]
   are interchangeable and pre-existing callers compile unchanged. *)

(* ------------------------------------------------------------------ *)
(* Error taxonomy (defined in Report, re-exported)                     *)
(* ------------------------------------------------------------------ *)

type error_class = Report.error_class =
  | Parse
  | Lex
  | Type
  | Lint
  | Budget
  | Internal
  | Crash of int (* worker died on this signal (process isolation only) *)

let class_to_string = Report.class_to_string

type error_info = Report.error_info = {
  cls : error_class;
  msg : string;
  line : int option;
}

let classify_exn : exn -> error_info = function
  | Litmus.Parser.Error (msg, line) -> { cls = Parse; msg; line = Some line }
  | Litmus.Lexer.Error (msg, line) -> { cls = Lex; msg; line = Some line }
  | Cat.Parser.Error (msg, line) -> { cls = Parse; msg; line = Some line }
  | Cat.Lexer.Error (msg, line) -> { cls = Lex; msg; line = Some line }
  | Cat.Interp.Type_error msg -> { cls = Type; msg; line = None }
  | Exec.Budget.Exceeded r ->
      { cls = Budget; msg = Exec.Budget.reason_to_string r; line = None }
  | Failure msg -> { cls = Internal; msg; line = None }
  | Stack_overflow -> { cls = Internal; msg = "stack overflow"; line = None }
  | Not_found -> { cls = Internal; msg = "not found"; line = None }
  | exn -> { cls = Internal; msg = Printexc.to_string exn; line = None }

let pp_error = Report.pp_error

(* ------------------------------------------------------------------ *)
(* Items and statuses                                                  *)
(* ------------------------------------------------------------------ *)

type source =
  [ `Text of string (* litmus concrete syntax *)
  | `File of string (* path to a .litmus file *)
  | `Ast of Litmus.Ast.t (* already parsed *) ]

type item = {
  id : string;
  source : source;
  expected : Exec.Check.verdict option; (* golden verdict, if any *)
}

type status = Report.status =
  | Pass of Exec.Check.verdict
  | Fail of { expected : Exec.Check.verdict; got : Exec.Check.verdict }
  | Gave_up of Exec.Budget.reason
  | Err of error_info

type entry = Report.entry = {
  item_id : string;
  status : status;
  time : float;
  n_candidates : int;
  retried : bool;
  result : Exec.Check.result option;
}

type report = Report.t = {
  entries : entry list;
  n_pass : int;
  n_fail : int;
  n_error : int;
  n_crash : int;
  n_gave_up : int;
  wall : float;
}

let is_crash = Report.is_crash

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Running one item                                                    *)
(* ------------------------------------------------------------------ *)

exception Lint_failed of string

let run_item ?(limits = Exec.Budget.default) ?deadline ?explainer ?backend
    ?(oracle = Lkmm.oracle) (item : item) =
  let t0 = Unix.gettimeofday () in
  let budget =
    match deadline with
    | Some d -> Some (Exec.Budget.start_at ~deadline:d limits)
    | None ->
        if Exec.Budget.is_unlimited limits then None
        else Some (Exec.Budget.start limits)
  in
  let finish ?result status =
    {
      item_id = item.id;
      status;
      retried = false;
      time = Unix.gettimeofday () -. t0;
      n_candidates =
        (match (result, budget) with
        | Some (r : Exec.Check.result), _ -> r.Exec.Check.n_candidates
        | None, Some b -> Exec.Budget.candidates_seen b
        | None, None -> 0);
      result;
    }
  in
  (* the "item" span brackets the whole fault barrier, so parse, lint
     and check (which opens its own spans) all nest under it *)
  Obs.with_span ~item:item.id "item" (fun () ->
      match
        (* everything — file IO, parsing, linting, checking — inside the
           fault barrier; no exception escapes an item *)
        let test =
          Obs.with_span ~item:item.id "parse" (fun () ->
              match item.source with
              | `Ast t -> t
              | `Text s -> Litmus.parse s
              | `File p -> Litmus.parse (read_file p))
        in
        Obs.with_span ~item:item.id "lint" (fun () ->
            match Litmus.Lint.errors (Litmus.Lint.check_all test) with
            | [] -> ()
            | issues ->
                raise
                  (Lint_failed
                     (String.concat "; "
                        (List.map
                           (fun (i : Litmus.Lint.issue) ->
                             i.Litmus.Lint.message)
                           issues))));
        let r = Exec.Oracle.run ?budget ?explainer ?backend oracle test in
        match r.Exec.Check.verdict with
        | Exec.Check.Unknown (Exec.Check.Budget_exceeded reason) ->
            finish (Gave_up reason)
        | Exec.Check.Unknown (Exec.Check.Model_error exn) ->
            (* the check caught the model's exception; recover its class *)
            finish (Err (classify_exn exn))
        | got -> (
            match item.expected with
            | Some expected when expected <> got ->
                finish ~result:r (Fail { expected; got })
            | _ -> finish ~result:r (Pass got))
      with
      | entry -> entry
      | exception Lint_failed msg ->
          finish (Err { cls = Lint; msg; line = None })
      | exception Exec.Budget.Exceeded reason -> finish (Gave_up reason)
      | exception exn -> finish (Err (classify_exn exn)))

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

let summarise = Report.summarise

let run ?limits ?explainer ?backend ?oracle (items : item list) =
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map (run_item ?limits ?explainer ?backend ?oracle) items
  in
  summarise ~wall:(Unix.gettimeofday () -. t0) entries

let exit_code = Report.exit_code

(* ------------------------------------------------------------------ *)
(* Rendering (all in Report; kept under the old names)                 *)
(* ------------------------------------------------------------------ *)

let pp_status = Report.pp_status
let pp_entry = Report.pp_entry
let pp = Report.pp
let schema_version = Report.schema_version
let entry_to_json = Report.entry_to_json
let to_json = Report.to_json
