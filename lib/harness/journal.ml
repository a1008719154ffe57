(* Crash-safe run journal (robustness layer).

   Long batteries must survive being killed: the journal is an
   append-only JSONL file with one self-contained line per completed
   item, written and flushed as the run progresses.  A [kill -9]
   mid-run loses at most the line being written; {!load} tolerates a
   truncated final line (and any other unparseable line) by dropping
   it, so a journal is always readable after a crash.

   A journal line is the runner's per-entry JSON plus a [schema_version]
   field and, for [gave_up] entries, a structured reason that
   round-trips exactly:

     {"schema_version": 3, "id": "corpus/SB.litmus", "time_s": 0.003,
      "candidates": 12, "status": "pass", "verdict": "Allow"}

   Duplicate ids can appear legitimately (a crashed item retried and
   re-journalled, or a resumed run overlapping the original); the last
   line for an id wins.  Resuming a run means loading the journal,
   recycling every journalled entry whose id matches a requested item,
   and running only the remainder. *)

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader                                               *)
(* ------------------------------------------------------------------ *)

(* The tree ships no JSON library; emission lives in {!Report.to_json}
   and this is its reading half.  Full JSON value syntax, no streaming:
   a journal line is a few hundred bytes. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Malformed of string

  let fail msg = raise (Malformed msg)

  type state = { s : string; mutable pos : int }

  let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some c' when c' = c -> advance st
    | _ -> fail (Printf.sprintf "expected '%c' at %d" c st.pos)

  let literal st word value =
    let n = String.length word in
    if
      st.pos + n <= String.length st.s
      && String.sub st.s st.pos n = word
    then begin
      st.pos <- st.pos + n;
      value
    end
    else fail ("bad literal at " ^ string_of_int st.pos)

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> fail "unterminated string"
      | Some '"' -> advance st
      | Some '\\' -> (
          advance st;
          match peek st with
          | None -> fail "unterminated escape"
          | Some c ->
              advance st;
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  if st.pos + 4 > String.length st.s then fail "short \\u";
                  let hex = String.sub st.s st.pos 4 in
                  st.pos <- st.pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  (* journal strings are ASCII-escaped on the way out, so
                     codes above 0xff do not occur; keep the low byte *)
                  Buffer.add_char buf (Char.chr (code land 0xff))
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              go ()
          )
      | Some c ->
          advance st;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let rec go () =
      match peek st with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          advance st;
          go ()
      | _ -> ()
    in
    go ();
    if st.pos = start then fail "empty number";
    match float_of_string_opt (String.sub st.s start (st.pos - start)) with
    | Some f -> f
    | None -> fail "bad number"

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail "unexpected end"
    | Some '{' ->
        advance st;
        skip_ws st;
        if peek st = Some '}' then begin
          advance st;
          Obj []
        end
        else
          let rec members acc =
            skip_ws st;
            let key = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                members ((key, v) :: acc)
            | Some '}' ->
                advance st;
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance st;
        skip_ws st;
        if peek st = Some ']' then begin
          advance st;
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                elements (v :: acc)
            | Some ']' ->
                advance st;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (parse_string st)
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> Num (parse_number st)

  let of_string s =
    let st = { s; pos = 0 } in
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail "trailing garbage";
    v

  let mem key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

  let str = function Str s -> Some s | _ -> None
  let num = function Num f -> Some f | _ -> None
  let bool_ = function Bool b -> Some b | _ -> None

  (* Re-render a parsed value (member order preserved; numbers via %g,
     integers printed without a point).  Lets a tool extract one member
     of a line — lkserve --metrics-dump, obs_report --postmortem-json —
     and print it as JSON again. *)
  let rec to_string = function
    | Null -> "null"
    | Bool b -> if b then "true" else "false"
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.sprintf "%.0f" f
        else Printf.sprintf "%g" f
    | Str s -> "\"" ^ Obs.json_escape s ^ "\""
    | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
    | Obj kvs ->
        "{"
        ^ String.concat ", "
            (List.map
               (fun (k, v) ->
                 "\"" ^ Obs.json_escape k ^ "\": " ^ to_string v)
               kvs)
        ^ "}"
end

(* ------------------------------------------------------------------ *)
(* Entry <-> line                                                      *)
(* ------------------------------------------------------------------ *)

(* [Gave_up] reasons are structured so a resumed report equals the
   uninterrupted one; the human-readable [reason] string from the
   runner's JSON is kept alongside for consumers that only display. *)
let reason_fields (r : Exec.Budget.reason) =
  match r with
  | Exec.Budget.Timed_out s ->
      Printf.sprintf ", \"reason_kind\": \"timed_out\", \"reason_arg\": %g" s
  | Exec.Budget.Too_many_events (n, m) ->
      Printf.sprintf
        ", \"reason_kind\": \"too_many_events\", \"reason_arg\": %d, \
         \"reason_arg2\": %d"
        n m
  | Exec.Budget.Too_many_candidates m ->
      Printf.sprintf
        ", \"reason_kind\": \"too_many_candidates\", \"reason_arg\": %d" m
  | Exec.Budget.Heap_exceeded mb ->
      Printf.sprintf ", \"reason_kind\": \"heap_exceeded\", \"reason_arg\": %d"
        mb

let line_of_entry (e : Report.entry) =
  let extra =
    match e.Report.status with
    | Report.Gave_up r -> reason_fields r
    | _ -> ""
  in
  let body = Report.entry_to_json e in
  (* splice schema_version and the structured extras into the object *)
  Printf.sprintf "{\"schema_version\": %d, %s%s}" Report.schema_version
    (String.sub body 1 (String.length body - 2))
    extra

let reason_of_json j =
  let arg name = Option.bind (Json.mem name j) Json.num in
  match Option.bind (Json.mem "reason_kind" j) Json.str with
  | Some "timed_out" ->
      Option.map (fun s -> Exec.Budget.Timed_out s) (arg "reason_arg")
  | Some "too_many_events" -> (
      match (arg "reason_arg", arg "reason_arg2") with
      | Some n, Some m ->
          Some (Exec.Budget.Too_many_events (int_of_float n, int_of_float m))
      | _ -> None)
  | Some "too_many_candidates" ->
      Option.map
        (fun m -> Exec.Budget.Too_many_candidates (int_of_float m))
        (arg "reason_arg")
  | Some "heap_exceeded" ->
      Option.map
        (fun mb -> Exec.Budget.Heap_exceeded (int_of_float mb))
        (arg "reason_arg")
  | _ -> None

let class_of_json j =
  match Option.bind (Json.mem "class" j) Json.str with
  | Some "parse" -> Some Report.Parse
  | Some "lex" -> Some Report.Lex
  | Some "type" -> Some Report.Type
  | Some "lint" -> Some Report.Lint
  | Some "budget" -> Some Report.Budget
  | Some "internal" -> Some Report.Internal
  | Some "crash" ->
      Some
        (Report.Crash
           (match Option.bind (Json.mem "signal" j) Json.num with
           | Some s -> int_of_float s
           | None -> 0))
  | _ -> None

let verdict_of_json j key =
  match Option.bind (Json.mem key j) Json.str with
  | Some "Allow" -> Some Exec.Check.Allow
  | Some "Forbid" -> Some Exec.Check.Forbid
  | _ -> None (* Unknown verdicts never appear in Pass/Fail statuses *)

let entry_of_line line : Report.entry option =
  match Json.of_string line with
  | exception Json.Malformed _ -> None
  | j -> (
      let ( let* ) = Option.bind in
      let* id = Option.bind (Json.mem "id" j) Json.str in
      let time =
        match Option.bind (Json.mem "time_s" j) Json.num with
        | Some t -> t
        | None -> 0.
      in
      let n_candidates =
        match Option.bind (Json.mem "candidates" j) Json.num with
        | Some n -> int_of_float n
        | None -> 0
      in
      let retried =
        Option.value ~default:false
          (Option.bind (Json.mem "retried" j) Json.bool_)
      in
      let* status =
        match Option.bind (Json.mem "status" j) Json.str with
        | Some "pass" ->
            Option.map (fun v -> Report.Pass v) (verdict_of_json j "verdict")
        | Some "fail" ->
            let* expected = verdict_of_json j "expected" in
            let* got = verdict_of_json j "got" in
            Some (Report.Fail { expected; got })
        | Some "gave_up" ->
            Option.map (fun r -> Report.Gave_up r) (reason_of_json j)
        | Some "error" ->
            let* cls = class_of_json j in
            let msg =
              Option.value ~default:""
                (Option.bind (Json.mem "msg" j) Json.str)
            in
            let line =
              Option.map int_of_float
                (Option.bind (Json.mem "line" j) Json.num)
            in
            Some (Report.Err { Report.cls; msg; line })
        | _ -> None
      in
      Some
        {
          Report.item_id = id;
          status;
          time;
          n_candidates;
          retried;
          result = None (* full check results are not journalled *);
        })

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = { oc : out_channel; fsync : bool }

(* Append mode: resuming writes into the same journal, so the recycled
   lines stay and the file remains a complete record of the battery.

   [~fsync] (off by default) forces every appended line to stable
   storage before {!write} returns: a flush hands the line to the
   kernel, surviving a process kill but not a power cut or OS crash;
   fsync survives those too, at a per-append cost.  The verdict cache
   of the checking service opts in, batch journals usually do not. *)
let open_writer ?(fsync = false) path =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  { oc; fsync }

(* Raw line append (the verdict cache journals its own line shape
   through the same durability path). *)
let write_line w line =
  output_string w.oc line;
  output_char w.oc '\n';
  flush w.oc;
  if w.fsync then
    try Unix.fsync (Unix.descr_of_out_channel w.oc)
    with Unix.Unix_error _ -> ()

(* One line per entry, flushed immediately: after a hard kill the
   journal is complete up to the last finished item. *)
let write w (e : Report.entry) = write_line w (line_of_entry e)

let close w = close_out_noerr w.oc

(* ------------------------------------------------------------------ *)
(* Streaming readers                                                    *)
(* ------------------------------------------------------------------ *)

(* Campaign-scale journals hold 10^5+ lines; the streaming readers visit
   one line at a time so a resume never materialises the whole file as a
   list.  Everything below (tolerant loading, partitioning, the verdict
   cache's recovery, the campaign manifest replay) is built on these. *)

let iter_lines path f =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    (try
       while true do
         f (input_line ic)
       done
     with End_of_file -> ());
    close_in_noerr ic
  end

let fold_lines path ~init ~f =
  let acc = ref init in
  iter_lines path (fun l -> acc := f !acc l);
  !acc

(* Parsed-entry streaming: torn or garbage lines are skipped, exactly as
   {!load} drops them.  No duplicate-id resolution — the caller sees the
   raw append order (last occurrence supersedes for callers that fold
   into a table). *)
let fold path ~init ~f =
  fold_lines path ~init ~f:(fun acc l ->
      match entry_of_line l with Some e -> f acc e | None -> acc)

let iter path f = fold path ~init:() ~f:(fun () e -> f e)

(* Tolerant raw loading shared with non-entry JSONL journals: every
   line that parses as JSON, in file order; torn or garbage lines are
   dropped exactly as {!load} drops them. *)
let load_json path =
  fold_lines path ~init:[] ~f:(fun acc l ->
      match Json.of_string l with
      | j -> j :: acc
      | exception Json.Malformed _ -> acc)
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Loading and resuming                                                *)
(* ------------------------------------------------------------------ *)

let load path =
  (* one streaming pass: the LAST line for an id wins (it supersedes
     earlier attempts), but the first occurrence keeps its position *)
  let best = Hashtbl.create 64 in
  let order =
    fold path ~init:[] ~f:(fun order (e : Report.entry) ->
        let fresh = not (Hashtbl.mem best e.Report.item_id) in
        Hashtbl.replace best e.Report.item_id e;
        if fresh then e.Report.item_id :: order else order)
  in
  List.rev_map (Hashtbl.find best) order

(* [partition journal items] — split [items] into (already-journalled
   entries, still-to-run items).  Journalled entries are keyed by item
   id; journal lines for unknown ids are ignored.  Streams the journal:
   only entries whose id matches a requested item are retained. *)
let partition path (items : Runner.item list) =
  let wanted = Hashtbl.create 64 in
  List.iter (fun (i : Runner.item) -> Hashtbl.replace wanted i.Runner.id ()) items;
  let by_id = Hashtbl.create 64 in
  iter path (fun (e : Report.entry) ->
      if Hashtbl.mem wanted e.Report.item_id then
        Hashtbl.replace by_id e.Report.item_id e);
  let recycled, todo =
    List.partition_map
      (fun (i : Runner.item) ->
        match Hashtbl.find_opt by_id i.Runner.id with
        | Some e -> Left e
        | None -> Right i)
      items
  in
  (recycled, todo)
