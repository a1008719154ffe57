(* The unified result schema (observability/API layer).

   Before this module, three shapes of "what happened" coexisted:
   {!Exec.Check.result} (one check), the runner's per-item entries and
   batch report, and the pool's crash/retry statistics folded into the
   same records by hand.  Everything downstream — JSON reports, the
   journal, resume, the CLIs' summaries — now reads and writes this one
   versioned type: an {!entry} wraps the per-item outcome (including
   the full {!Exec.Check.result} when one was produced), a {!t}
   aggregates a batch, and both serialise through the functions here
   and nowhere else.

   Schema history:

   v1 (PR 1-3)  per-entry: id, time_s, candidates, status fields,
                [prefiltered] only when non-zero, [retried] flag;
                top level: totals, wall_s, max_time_s/peak_candidates
                stats, exit_code.
   v2 (this PR) per-entry: [prefiltered], [consistent] and [matching]
                are always present when a check result is (previously
                [prefiltered] appeared only when non-zero and the other
                two not at all); top level additionally carries
                [retried] (count of retried entries) and, when the
                observability collector is enabled, a [metrics] object
                ({!Obs.summary_json}: counters, per-phase span totals,
                histograms).  No v1 field changed meaning or name, so
                v1 consumers that ignore unknown fields read v2
                documents unchanged; journals written at v1 load at v2
                (the journal reader has never keyed on the version).
   v3 (PR 6)    per-entry: when a check ran with an explainer and the
                verdict is Forbid, an [explanations] array rides along
                (one object per failed check: name, constraint kind,
                the witnessing cycle/pairs as [steps] with primitive
                provenance, and the event labels — the exact
                {!Exec.Explain.to_json} shape, already self-validated
                before serialisation).  Absent otherwise, so v2
                consumers that ignore unknown fields read v3 documents
                unchanged.
   v4 (this PR) per-entry: when a check result is present it carries
                [backend] ("enum" | "batch" | "sat" — the engine that
                produced it, {!Exec.Check.backend}) and, for the SAT
                engine only, a [sat] object ({"conflicts": n,
                "decisions": n, "fallback": bool} — solver counters,
                [fallback] true when the model had no solver and the
                check fell back enumeratively).  Absent on entries
                without a result, so v3 consumers that ignore unknown
                fields read v4 documents unchanged.

   The exit-code policy lives here too, because it is a function of the
   report alone: 0 = all pass, 1 = some FAIL, 2 = some ERROR, 3 = some
   gave-up and nothing worse, 4 = some crashed worker; 4 beats 2 beats
   1 beats 3 in mixed batches. *)

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

type error_class =
  | Parse
  | Lex
  | Type
  | Lint
  | Budget
  | Internal
  | Crash of int (* worker died on this signal (process isolation only) *)

let class_to_string = function
  | Parse -> "parse"
  | Lex -> "lex"
  | Type -> "type"
  | Lint -> "lint"
  | Budget -> "budget"
  | Internal -> "internal"
  | Crash _ -> "crash"

type error_info = {
  cls : error_class;
  msg : string;
  line : int option; (* source position, when the error carries one *)
}

let pp_error ppf e =
  match e.line with
  | Some l -> Fmt.pf ppf "%s error, line %d: %s" (class_to_string e.cls) l e.msg
  | None -> Fmt.pf ppf "%s error: %s" (class_to_string e.cls) e.msg

(* ------------------------------------------------------------------ *)
(* Entries and reports                                                 *)
(* ------------------------------------------------------------------ *)

type status =
  | Pass of Exec.Check.verdict (* completed; matched expectation if any *)
  | Fail of { expected : Exec.Check.verdict; got : Exec.Check.verdict }
  | Gave_up of Exec.Budget.reason (* budget exceeded: partial result *)
  | Err of error_info

type entry = {
  item_id : string;
  status : status;
  time : float; (* wall-clock seconds for this item *)
  n_candidates : int; (* candidates enumerated (partial on Gave_up) *)
  retried : bool; (* true = this is the second attempt after a crash *)
  result : Exec.Check.result option;
      (* the full check result when one was produced (Pass/Fail) *)
}

type t = {
  entries : entry list;
  n_pass : int;
  n_fail : int;
  n_error : int;
  n_crash : int; (* Err entries whose class is Crash (counted apart) *)
  n_gave_up : int;
  wall : float; (* wall-clock seconds for the whole batch *)
}

let is_crash (e : entry) =
  match e.status with Err { cls = Crash _; _ } -> true | _ -> false

let summarise ~wall entries =
  let count p = List.length (List.filter p entries) in
  {
    entries;
    n_pass = count (fun e -> match e.status with Pass _ -> true | _ -> false);
    n_fail = count (fun e -> match e.status with Fail _ -> true | _ -> false);
    n_error =
      count (fun e ->
          match e.status with Err _ -> not (is_crash e) | _ -> false);
    n_crash = count is_crash;
    n_gave_up =
      count (fun e -> match e.status with Gave_up _ -> true | _ -> false);
    wall;
  }

(* The deterministic exit-code policy (see the header comment):
   crash > error > fail > gave-up. *)
let exit_code r =
  if r.n_crash > 0 then 4
  else if r.n_error > 0 then 2
  else if r.n_fail > 0 then 1
  else if r.n_gave_up > 0 then 3
  else 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_status ppf = function
  | Pass v -> Fmt.pf ppf "PASS (%s)" (Exec.Check.verdict_to_string v)
  | Fail { expected; got } ->
      Fmt.pf ppf "FAIL (expected %s, got %s)"
        (Exec.Check.verdict_to_string expected)
        (Exec.Check.verdict_to_string got)
  | Gave_up r -> Fmt.pf ppf "GAVE UP (%s)" (Exec.Budget.reason_to_string r)
  | Err e -> Fmt.pf ppf "ERROR (%a)" pp_error e

let pp_entry ppf e =
  Fmt.pf ppf "%-45s %a  [%.3fs]" e.item_id pp_status e.status e.time

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@,%d items: %d pass, %d fail, %d error, %d crash, %d \
              gave up (%.3fs)@]"
    Fmt.(list ~sep:cut pp_entry)
    r.entries
    (List.length r.entries)
    r.n_pass r.n_fail r.n_error r.n_crash r.n_gave_up r.wall

(* Minimal JSON emission (no JSON library in the tree). *)
let json_escape = Obs.json_escape

(* Reports and journal lines carry this version so downstream consumers
   can detect format changes; bump on any incompatible field change
   (history in the module header). *)
let schema_version = 4

let entry_to_json e =
  let base =
    Printf.sprintf "\"id\": \"%s\", \"time_s\": %.6f, \"candidates\": %d%s%s"
      (json_escape e.item_id) e.time e.n_candidates
      (match e.result with
      | Some r ->
          Printf.sprintf
            ", \"prefiltered\": %d, \"consistent\": %d, \"matching\": %d, \
             \"backend\": \"%s\"%s%s"
            r.Exec.Check.n_prefiltered r.Exec.Check.n_consistent
            r.Exec.Check.n_matching
            (Exec.Check.backend_to_string r.Exec.Check.backend)
            (match r.Exec.Check.sat with
            | Some s ->
                Printf.sprintf
                  ", \"sat\": {\"conflicts\": %d, \"decisions\": %d, \
                   \"fallback\": %b}"
                  s.Exec.Check.conflicts s.Exec.Check.decisions
                  s.Exec.Check.fallback
            | None -> "")
            (match r.Exec.Check.explanations with
            | [] -> ""
            | es ->
                Printf.sprintf ", \"explanations\": [%s]"
                  (String.concat ", " (List.map Exec.Explain.to_json es)))
      | None -> "")
      (if e.retried then ", \"retried\": true" else "")
  in
  let rest =
    match e.status with
    | Pass v ->
        Printf.sprintf "\"status\": \"pass\", \"verdict\": \"%s\""
          (json_escape (Exec.Check.verdict_to_string v))
    | Fail { expected; got } ->
        Printf.sprintf
          "\"status\": \"fail\", \"expected\": \"%s\", \"got\": \"%s\""
          (json_escape (Exec.Check.verdict_to_string expected))
          (json_escape (Exec.Check.verdict_to_string got))
    | Gave_up r ->
        Printf.sprintf "\"status\": \"gave_up\", \"reason\": \"%s\""
          (json_escape (Exec.Budget.reason_to_string r))
    | Err err ->
        Printf.sprintf
          "\"status\": \"error\", \"class\": \"%s\", \"msg\": \"%s\"%s%s"
          (class_to_string err.cls) (json_escape err.msg)
          (match err.cls with
          | Crash s -> Printf.sprintf ", \"signal\": %d" s
          | _ -> "")
          (match err.line with
          | Some l -> Printf.sprintf ", \"line\": %d" l
          | None -> "")
  in
  Printf.sprintf "{%s, %s}" base rest

(* Per-batch perf aggregates: the slowest item and the candidate-count
   peak, so perf regressions are attributable to a single test. *)
let slowest r =
  List.fold_left
    (fun acc (e : entry) ->
      match acc with
      | Some (m : entry) when m.time >= e.time -> acc
      | _ -> Some e)
    None r.entries

let peak_candidates r =
  List.fold_left
    (fun acc (e : entry) ->
      match acc with
      | Some (m : entry) when m.n_candidates >= e.n_candidates -> acc
      | _ -> Some e)
    None r.entries

let to_json r =
  let stat name (e : entry option) value =
    match e with
    | None -> ""
    | Some e ->
        Printf.sprintf " \"%s\": %s, \"%s_id\": \"%s\"," name (value e) name
          (json_escape e.item_id)
  in
  let n_retried =
    List.length (List.filter (fun e -> e.retried) r.entries)
  in
  (* the live collector's totals ride along when tracing is on, so a
     single --json --metrics run yields one self-contained document *)
  let metrics =
    if Obs.enabled () then
      Printf.sprintf " \"metrics\": %s," (Obs.summary_json ())
    else ""
  in
  Printf.sprintf
    "{\"schema_version\": %d, \"total\": %d, \"pass\": %d, \"fail\": %d, \
     \"error\": %d, \"crash\": %d, \"gave_up\": %d, \"retried\": %d, \
     \"wall_s\": %.6f,%s%s%s \"exit_code\": %d,\n\"entries\": [\n%s\n]}"
    schema_version
    (List.length r.entries)
    r.n_pass r.n_fail r.n_error r.n_crash r.n_gave_up n_retried r.wall
    (stat "max_time_s" (slowest r) (fun e -> Printf.sprintf "%.6f" e.time))
    (stat "peak_candidates" (peak_candidates r) (fun e ->
         string_of_int e.n_candidates))
    metrics (exit_code r)
    (String.concat ",\n" (List.map entry_to_json r.entries))
