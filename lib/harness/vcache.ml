(* Content-addressed verdict cache for the checking service.

   A verdict depends on exactly two things: the test source and the
   model checking it.  The cache key is therefore
   [Digest (schema_version NUL model_key NUL source)] —
   whitespace-identical resubmissions of the same test under the same
   model hit, anything else misses.  The report schema version is in
   the key because an entry carries the check's counts, whose meaning
   a version bump changes: a journal written under another version
   serves no entry.
   [model_key] must capture the model's full identity: for built-in
   models the name suffices (the binary pins the semantics); for .cat
   files it must include a digest of the file's contents, which
   {!Serve} arranges when it builds its model table.

   Only deterministic outcomes are cached: [Pass] and [Fail] entries.
   [Gave_up] depends on the budget a request happened to carry and
   [Err] may be transient (a crashed worker), so both always re-run.

   Persistence rides on {!Journal}: each insertion appends one JSONL
   line — the entry's journal line with a leading ["vkey"] member — and
   recovery re-reads the file through the same torn-tail-tolerant
   loader the run journal uses, so a daemon killed mid-append recovers
   every complete insertion and silently drops the torn one. *)

type t = {
  tbl : (string, Report.entry) Hashtbl.t;
  writer : Journal.writer option;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  stores : Obs.Counter.t;
}

let key ~model_key ~source =
  let version = string_of_int Report.schema_version in
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ version; model_key; source ]))

(* The persisted line: the entry's journal line with the cache key
   spliced in as a leading member ({!Journal.entry_of_line} ignores
   members it does not know, so the line is still a valid entry line). *)
let line_of_binding vkey entry =
  let line = Journal.line_of_entry entry in
  (* line is "{...}"; re-open it with the vkey member in front. *)
  Printf.sprintf "{\"vkey\": \"%s\", %s" (Report.json_escape vkey)
    (String.sub line 1 (String.length line - 1))

let cacheable (e : Report.entry) =
  match e.Report.status with
  | Report.Pass _ | Report.Fail _ -> true
  | Report.Gave_up _ | Report.Err _ -> false

(* Recovery walks the file line by line (streamed through
   {!Journal.iter_lines} — a long-lived daemon's journal can hold far
   more history than is worth holding as a list), keeping lines that
   both parse as JSON with a ["vkey"] member and round-trip through
   {!Journal.entry_of_line} — same tolerance as {!Journal.load}: torn
   or foreign lines are dropped, never propagated.  Returns the
   bindings in file order plus the raw line count, which the startup
   compaction below compares against the live set. *)
let load_bindings path =
  let n_lines = ref 0 in
  let acc = ref [] in
  Journal.iter_lines path (fun line ->
      incr n_lines;
      match Journal.Json.of_string line with
      | exception Journal.Json.Malformed _ -> () (* torn tail, garbage *)
      | j -> (
          match
            ( Option.bind (Journal.Json.mem "vkey" j) Journal.Json.str,
              Journal.entry_of_line line )
          with
          | Some vkey, Some entry when cacheable entry ->
              acc := (vkey, entry) :: !acc
          | _ -> ()));
  (List.rev !acc, !n_lines)

(* Startup compaction: across restarts the journal accumulates
   duplicate keys (overlapping daemons, replayed inserts), torn tails
   and foreign garbage, and replay cost grows without bound even though
   the live set does not.  When the raw line count reaches the
   threshold and exceeds the live set, the file is rewritten to exactly
   the live bindings — atomically (temp + fsync + rename), so a kill at
   any point leaves either the old journal or the compacted one, never
   a torn hybrid.  Duplicate keys resolve last-wins, first-occurrence
   key order preserved (the same resolution the in-memory table
   applies). *)
let default_compact_threshold = 8192

let compact_file path lines =
  let tmp = path ^ ".compact.tmp" in
  (try Sys.remove tmp with Sys_error _ -> ());
  let oc = open_out tmp in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

let create ?journal ?(fsync = false)
    ?(compact_threshold = default_compact_threshold) () =
  let tbl = Hashtbl.create 256 in
  let writer =
    match journal with
    | None -> None
    | Some path ->
        (* Recover first (tolerant), then open for append: bindings that
           survived the crash keep serving, the torn tail is gone, and
           new insertions extend the same file. *)
        let bindings, n_lines = load_bindings path in
        let order = ref [] in
        List.iter
          (fun (k, e) ->
            if not (Hashtbl.mem tbl k) then order := k :: !order;
            Hashtbl.replace tbl k e)
          bindings;
        if n_lines >= compact_threshold && n_lines > Hashtbl.length tbl then
          compact_file path
            (List.rev_map
               (fun k -> line_of_binding k (Hashtbl.find tbl k))
               !order);
        Some (Journal.open_writer ~fsync path)
  in
  {
    tbl;
    writer;
    hits = Obs.Counter.make "serve.cache.hits";
    misses = Obs.Counter.make "serve.cache.misses";
    stores = Obs.Counter.make "serve.cache.stores";
  }

let find c vkey =
  match Hashtbl.find_opt c.tbl vkey with
  | Some e ->
      Obs.Counter.incr_always c.hits;
      Some e
  | None ->
      Obs.Counter.incr_always c.misses;
      None

let store c vkey entry =
  if cacheable entry && not (Hashtbl.mem c.tbl vkey) then begin
    Hashtbl.replace c.tbl vkey entry;
    Obs.Counter.incr_always c.stores;
    match c.writer with
    | Some w -> Journal.write_line w (line_of_binding vkey entry)
    | None -> ()
  end

let size c = Hashtbl.length c.tbl
let hits c = Obs.Counter.value c.hits
let misses c = Obs.Counter.value c.misses
let close c = match c.writer with Some w -> Journal.close w | None -> ()
