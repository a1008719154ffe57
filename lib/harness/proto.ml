(* The checking service's wire protocol (robustness layer).

   One JSON object per line in both directions over a Unix-domain
   stream socket; requests and responses are correlated by a
   client-chosen [id], so a client may pipeline requests and the daemon
   may answer out of order as workers finish.

   Request line:

     {"id": "r1", "op": "check", "test": "<litmus source>",
      "model": "lk", "timeout_ms": 5000, "expected": "Allow"}

   [op] is one of [check] (the payload above), [ping], [stats],
   [shutdown], and — only when the daemon runs with [--chaos-ops] —
   the fault-injection operators [chaos_kill] (the worker picking the
   request up dies as if it had crashed) and [chaos_wedge] (the worker
   busy-hangs without ticking its budget, exercising the supervisor's
   wedge detection).

   Response line:

     {"id": "r1", "class": "ok", "cache": "miss",
      "entry": {<schema-v3 report entry>}}

   [class] is the response taxonomy, the service-side analogue of the
   pool's exit codes: [ok]/[fail] wrap a completed verdict entry,
   [unknown] a budget-tripped one (deadline included), [error] a
   classified failure (parse errors, malformed requests, oversized
   lines, duplicate ids, crashed-and-not-retryable workers),
   [overloaded] an admission rejection (the queue was at its bound;
   nothing was attempted), and [quarantined] a poison request (it took
   down two workers, or matched the fingerprint of one that already
   did).  Classes that checked something embed the full schema-v3
   {!Report} entry, so a service client sees exactly what a batch
   [--json] consumer sees. *)

module Json = Journal.Json

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type check = {
  test : string; (* litmus concrete syntax *)
  model : string; (* model name, as in herd_lk -model *)
  timeout_ms : int option; (* per-request deadline; None = daemon default *)
  expected : Exec.Check.verdict option; (* golden verdict, if any *)
}

type op =
  | Check of check
  | Ping
  | Stats
  | Metrics
  | Shutdown
  | Chaos_kill
  | Chaos_wedge of float (* seconds to hang without ticking a budget *)

type request = { req_id : string; trace : string option; op : op }

(* [parse_request line] — [Error msg] on anything malformed; the caller
   answers with class [error].  The request id is recovered even from
   half-malformed lines when possible, so the error response correlates. *)
let parse_request line : (request, string * string option) result =
  match Json.of_string line with
  | exception Json.Malformed m -> Error ("malformed JSON: " ^ m, None)
  | j -> (
      let str k = Option.bind (Json.mem k j) Json.str in
      let num k = Option.bind (Json.mem k j) Json.num in
      let id = str "id" in
      match id with
      | None -> Error ("missing request id", None)
      | Some req_id -> (
          let fail msg = Error (msg, Some req_id) in
          let trace = str "trace" in
          let ok op = Ok { req_id; trace; op } in
          match str "op" with
          | None -> fail "missing op"
          | Some "ping" -> ok Ping
          | Some "stats" -> ok Stats
          | Some "metrics" -> ok Metrics
          | Some "shutdown" -> ok Shutdown
          | Some "chaos_kill" -> ok Chaos_kill
          | Some "chaos_wedge" ->
              let secs =
                match num "seconds" with Some s -> s | None -> 5.0
              in
              ok (Chaos_wedge secs)
          | Some "check" -> (
              match str "test" with
              | None -> fail "check without a test"
              | Some test ->
                  let model =
                    match str "model" with Some m -> m | None -> "lk"
                  in
                  let timeout_ms = Option.map int_of_float (num "timeout_ms") in
                  let expected =
                    match str "expected" with
                    | Some "Allow" -> Some Exec.Check.Allow
                    | Some "Forbid" -> Some Exec.Check.Forbid
                    | _ -> None
                  in
                  ok (Check { test; model; timeout_ms; expected }))
          | Some other -> fail ("unknown op: " ^ other)))

(* Client-side request emission. *)
let check_line ~id ?trace ?(model = "lk") ?timeout_ms ?expected test =
  Printf.sprintf "{\"id\": \"%s\", \"op\": \"check\", \"model\": \"%s\"%s%s%s, \
                  \"test\": \"%s\"}"
    (Report.json_escape id) (Report.json_escape model)
    (match trace with
    | Some t -> Printf.sprintf ", \"trace\": \"%s\"" (Report.json_escape t)
    | None -> "")
    (match timeout_ms with
    | Some ms -> Printf.sprintf ", \"timeout_ms\": %d" ms
    | None -> "")
    (match expected with
    | Some v ->
        Printf.sprintf ", \"expected\": \"%s\"" (Exec.Check.verdict_to_string v)
    | None -> "")
    (Report.json_escape test)

let simple_line ~id ?trace op =
  Printf.sprintf "{\"id\": \"%s\", \"op\": \"%s\"%s}" (Report.json_escape id)
    op
    (match trace with
    | Some t -> Printf.sprintf ", \"trace\": \"%s\"" (Report.json_escape t)
    | None -> "")

let chaos_wedge_line ~id ?trace seconds =
  Printf.sprintf "{\"id\": \"%s\", \"op\": \"chaos_wedge\", \"seconds\": %g%s}"
    (Report.json_escape id) seconds
    (match trace with
    | Some t -> Printf.sprintf ", \"trace\": \"%s\"" (Report.json_escape t)
    | None -> "")

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type cls = Ok_ | Fail | Unknown | Error | Overloaded | Quarantined

let cls_name = function
  | Ok_ -> "ok"
  | Fail -> "fail"
  | Unknown -> "unknown"
  | Error -> "error"
  | Overloaded -> "overloaded"
  | Quarantined -> "quarantined"

let cls_of_name = function
  | "ok" -> Some Ok_
  | "fail" -> Some Fail
  | "unknown" -> Some Unknown
  | "error" -> Some Error
  | "overloaded" -> Some Overloaded
  | "quarantined" -> Some Quarantined
  | _ -> None

(* The entry's class: the same mapping the exit-code policy uses, seen
   from one request's perspective. *)
let cls_of_entry (e : Report.entry) =
  match e.Report.status with
  | Report.Pass _ -> Ok_
  | Report.Fail _ -> Fail
  | Report.Gave_up _ -> Unknown
  | Report.Err _ -> Error

let response_line ~id ~cls ?trace ?cache ?entry ?msg ?(extra = []) () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"id\": \"%s\", \"class\": \"%s\""
       (Report.json_escape id) (cls_name cls));
  (match trace with
  | Some t ->
      Buffer.add_string b
        (Printf.sprintf ", \"trace\": \"%s\"" (Report.json_escape t))
  | None -> ());
  (match cache with
  | Some hit ->
      Buffer.add_string b
        (Printf.sprintf ", \"cache\": \"%s\"" (if hit then "hit" else "miss"))
  | None -> ());
  (match msg with
  | Some m ->
      Buffer.add_string b
        (Printf.sprintf ", \"msg\": \"%s\"" (Report.json_escape m))
  | None -> ());
  List.iter
    (fun (k, raw_json) ->
      Buffer.add_string b (Printf.sprintf ", \"%s\": %s" k raw_json))
    extra;
  (match entry with
  | Some e ->
      Buffer.add_string b ", \"entry\": ";
      Buffer.add_string b (Journal.line_of_entry e)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

(* What clients (chaos driver, bench, tests) need back out of a
   response line; [entry] is re-read through the journal reader, so a
   client sees the same {!Report.entry} a journal consumer would. *)
type response = {
  rsp_id : string;
  rsp_cls : cls;
  rsp_trace : string option; (* trace id, echoed on traced requests *)
  rsp_cache_hit : bool option; (* None when no cache field was sent *)
  rsp_verdict : string option; (* entry.verdict / got, when present *)
  rsp_status : string option; (* entry.status, when present *)
  rsp_msg : string option;
  rsp_json : Json.t; (* the whole line, for stats and extras *)
}

let parse_response line : (response, string) result =
  match Json.of_string line with
  | exception Json.Malformed m -> Result.Error ("malformed response: " ^ m)
  | j -> (
      let str k = Option.bind (Json.mem k j) Json.str in
      match (str "id", Option.bind (str "class") cls_of_name) with
      | Some rsp_id, Some rsp_cls ->
          let entry = Json.mem "entry" j in
          let estr k = Option.bind (Option.bind entry (Json.mem k)) Json.str in
          Ok
            {
              rsp_id;
              rsp_cls;
              rsp_trace = str "trace";
              rsp_cache_hit =
                Option.map (fun c -> c = "hit") (str "cache");
              rsp_verdict =
                (match estr "verdict" with
                | Some v -> Some v
                | None -> estr "got");
              rsp_status = estr "status";
              rsp_msg = str "msg";
              rsp_json = j;
            }
      | _ -> Result.Error ("response missing id/class: " ^ line))
