(* Pipeline observability: tracing spans, counters and histograms behind
   a single process-global collector (observability layer).

   The design constraints, in order:

   1. *Zero cost when disabled.*  Every instrumentation point in the hot
      paths (enumeration, prefilter, model evaluation, the bitset
      kernel) guards on one global boolean; a disabled probe is a load
      and a branch, nothing is allocated and the clock is never read.

   2. *Bounded memory when enabled.*  Spans land in a fixed-capacity
      ring buffer: a pathological test that opens millions of spans
      overwrites its own oldest spans instead of exhausting the heap,
      and the number dropped is reported.  Counters and histograms are
      O(#distinct names).

   3. *Fork-transparent.*  The pool, campaigns and the serve daemon
      check on {!Harness.Supervisor}'s forked workers; a worker resets
      the (inherited) collector before each job, records into its own
      copy, and ships a {!dump} back over the existing result pipe,
      which the parent {!merge}s — remapping span ids and tagging the
      worker's spans with its pid — so a [-j N] run produces one
      coherent trace.

   4. *Domain-safe.*  A program recording from several OCaml 5 domains
      shares this one collector; counters are atomic, the span ring and
      registries are guarded by a single mutex taken only in the
      enabled paths, and the open-span *stack* is domain-local (spans
      from different domains never nest under each other; each span
      carries its domain id as [tid], 0 on the main domain so
      single-domain traces are unchanged).

   Timestamps come from one clamped clock ({!now_us}): microseconds
   since collector creation, never decreasing even if the wall clock
   steps backwards, so spans are well-nested by construction.  Exports:
   JSONL (one self-describing line per span / counter / histogram, the
   format {!tools/obs_report} consumes) and the Chrome trace-event
   format, loadable directly in chrome://tracing or Perfetto. *)

(* The one collector lock (see design constraint 4).  Every enabled-path
   mutation of shared state takes it; disabled probes never touch it. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

(* ------------------------------------------------------------------ *)
(* The enable switch                                                   *)
(* ------------------------------------------------------------------ *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* ------------------------------------------------------------------ *)
(* The clock                                                           *)
(* ------------------------------------------------------------------ *)

(* Microseconds since the collector epoch (process start), clamped to be
   non-decreasing: a wall-clock step backwards cannot produce a span
   that ends before it starts.  Forked children inherit the epoch, so
   merged parent/worker timelines share one time base. *)
let epoch = Unix.gettimeofday ()
let last = ref 0.

let now_us () =
  let t = (Unix.gettimeofday () -. epoch) *. 1e6 in
  if t > !last then last := t;
  !last

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int; (* id of the enclosing span; -1 = top level *)
  mutable tid : int; (* 0 = this process; a worker pid after merge *)
  name : string; (* phase name: "parse", "enumerate", "model", ... *)
  item : string; (* test/item id when known, "" otherwise *)
  start_us : float;
  mutable dur_us : float; (* -1 while the span is open *)
}

let default_capacity = 65_536

type collector = {
  mutable ring : span array; (* slot i holds span number (total - live + i') *)
  mutable total : int; (* spans ever recorded *)
  mutable next_id : int;
}

let dummy =
  { id = -1; parent = -1; tid = 0; name = ""; item = ""; start_us = 0.;
    dur_us = 0. }

let c = { ring = [||]; total = 0; next_id = 0 }

(* Open spans, innermost first — per domain, so concurrent domains each
   keep a well-nested stack and never adopt each other's parents.
   {!reset} clears the calling domain's stack only (a forked worker has
   exactly one). *)
let stack_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let capacity () =
  if Array.length c.ring = 0 then c.ring <- Array.make default_capacity dummy;
  Array.length c.ring

let push_span s =
  let cap = capacity () in
  c.ring.(c.total mod cap) <- s;
  c.total <- c.total + 1

let dropped () = max 0 (c.total - Array.length c.ring)

(* Recorded spans, oldest first (closed or not). *)
let spans () =
  locked (fun () ->
      let cap = Array.length c.ring in
      let live = min c.total cap in
      List.init live (fun i -> c.ring.((c.total - live + i) mod cap)))

let fresh_id () =
  let id = c.next_id in
  c.next_id <- id + 1;
  id

(* Flight-recorder hook, installed below (the recorder needs the export
   helpers defined later in this file).  Called with the current clock
   under the collector lock from the enabled recording paths; a no-op
   closure until {!flight_start}. *)
let flight_tick_u : (float -> unit) ref = ref (fun _ -> ())

let enter ?(item = "") name =
  let stk = stack () in
  let parent = match !stk with s :: _ -> s.id | [] -> -1 in
  let s =
    locked (fun () ->
        let s =
          { id = fresh_id (); parent; tid = (Domain.self () :> int); name;
            item; start_us = now_us (); dur_us = -1. }
        in
        push_span s;
        !flight_tick_u s.start_us;
        s)
  in
  stk := s :: !stk;
  s

let exit_span s =
  s.dur_us <- now_us () -. s.start_us;
  (* tolerate a mismatched exit (an exception path that skipped a pop):
     pop down to and including [s] if it is on the stack at all *)
  let rec pop = function
    | x :: rest when x == s -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  let stk = stack () in
  if List.exists (fun x -> x == s) !stk then stk := pop !stk

let with_span ?item name f =
  if not !on then f ()
  else begin
    let s = enter ?item name in
    Fun.protect ~finally:(fun () -> exit_span s) f
  end

(* Explicitly timed spans and instant events.  The serve daemon
   assembles request-lifecycle spans (admission -> queue wait -> reply)
   from timestamps, outside any open-span stack, and marks retry and
   quarantine transitions as zero-duration events on the same trace;
   both are born closed and never touch the DLS stacks. *)
let record ?(item = "") ?parent ?tid ~start_us ~dur_us name =
  if !on then begin
    let tid = match tid with Some t -> t | None -> (Domain.self () :> int) in
    let parent = Option.value ~default:(-1) parent in
    locked (fun () ->
        push_span
          { id = fresh_id (); parent; tid; name; item; start_us;
            dur_us = Float.max 0. dur_us };
        !flight_tick_u (now_us ()))
  end

let event ?item name =
  if !on then record ?item ~start_us:(now_us ()) ~dur_us:0. name

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* Atomic, not mutable-int: hot-path counters may be bumped from
     several domains at once and a plain read-modify-write would
     lose increments.  fetch-and-add is one lock-prefixed instruction —
     no mutex on the add path. *)
  type t = { name : string; v : int Atomic.t }

  (* The registry survives {!reset} (values are zeroed in place), so
     module-level [make] bindings in instrumented code stay valid for
     the whole process lifetime. *)
  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
            let c = { name; v = Atomic.make 0 } in
            Hashtbl.add registry name c;
            c)

  let add c n = if !on then ignore (Atomic.fetch_and_add c.v n)
  let incr c = add c 1

  (* Unconditional: service-level counters (verdict-cache hits/misses)
     feed the always-on metrics surface, collector or no collector. *)
  let add_always c n = ignore (Atomic.fetch_and_add c.v n)
  let incr_always c = add_always c 1
  let value c = Atomic.get c.v
  let name c = c.name
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* log2 buckets over microseconds: bucket i counts observations in
     [2^i, 2^(i+1)) us, bucket 0 also takes everything below 1 us. *)
  let n_buckets = 32

  type t = {
    name : string;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
    buckets : int array;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
            let h =
              { name; count = 0; sum = 0.; min_v = infinity;
                max_v = neg_infinity; buckets = Array.make n_buckets 0 }
            in
            Hashtbl.add registry name h;
            h)

  let bucket_of v =
    if v < 1. then 0
    else min (n_buckets - 1) (int_of_float (Float.log2 v))

  (* Service-level metrics (the daemon's latency and queue-wait
     distributions) accumulate whether or not tracing is switched on:
     a metrics snapshot must answer with real percentiles on a daemon
     that never enabled the collector.  [observe] is the trace-gated
     variant every pipeline probe uses. *)
  let observe_always h v =
    locked (fun () ->
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        if v < h.min_v then h.min_v <- v;
        if v > h.max_v then h.max_v <- v;
        let b = bucket_of v in
        h.buckets.(b) <- h.buckets.(b) + 1)

  let observe h v = if !on then observe_always h v

  let count h = h.count
  let sum h = h.sum
  let name h = h.name
end

(* ------------------------------------------------------------------ *)
(* Reset, dump, merge (the fork boundary)                              *)
(* ------------------------------------------------------------------ *)

(* The [_u] variants assume the collector lock is held (or never
   contended: single-domain tooling paths); the public ones take it.
   The lock is not reentrant, so locked code must call only [_u]s. *)

let counters_u () =
  Hashtbl.fold
    (fun name (ct : Counter.t) acc ->
      let v = Atomic.get ct.Counter.v in
      if v <> 0 then (name, v) :: acc else acc)
    Counter.registry []
  |> List.sort compare

let counters () = locked counters_u

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : int array;
}

let histograms_u () =
  Hashtbl.fold
    (fun name (h : Histogram.t) acc ->
      if h.Histogram.count > 0 then
        ( name,
          { h_count = h.Histogram.count; h_sum = h.Histogram.sum;
            h_min = h.Histogram.min_v; h_max = h.Histogram.max_v;
            h_buckets = Array.copy h.Histogram.buckets } )
        :: acc
      else acc)
    Histogram.registry []
  |> List.sort compare

let histograms () = locked histograms_u

let hist_snapshot (h : Histogram.t) =
  locked (fun () ->
      { h_count = h.Histogram.count; h_sum = h.Histogram.sum;
        h_min = h.Histogram.min_v; h_max = h.Histogram.max_v;
        h_buckets = Array.copy h.Histogram.buckets })

(* Quantile estimate from the log2-us buckets: find the bucket holding
   the q-th observation and interpolate linearly inside it, clamped to
   the exact observed min/max so p0/p100 are never invented. *)
let quantile (h : hist_summary) q =
  if h.h_count <= 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int h.h_count in
    let rec go i seen =
      if i >= Array.length h.h_buckets then h.h_max
      else
        let n = h.h_buckets.(i) in
        if n > 0 && float_of_int (seen + n) >= target then begin
          let lo = if i = 0 then 0. else Float.pow 2. (float_of_int i) in
          let hi = Float.pow 2. (float_of_int (i + 1)) in
          let frac = (target -. float_of_int seen) /. float_of_int n in
          Float.min h.h_max (Float.max h.h_min (lo +. (frac *. (hi -. lo))))
        end
        else go (i + 1) (seen + n)
    in
    go 0 0
  end

(* The one latency-summary shape every metrics surface renders
   (lkserve's [metrics] op, lkcampaign's journalled snapshots):
   count / p50 / p95 / p99 / max / mean, microseconds. *)
let hist_metrics_json (h : hist_summary) =
  if h.h_count = 0 then
    "{\"count\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0, \"max\": 0, \
     \"mean\": 0}"
  else
    Printf.sprintf
      "{\"count\": %d, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \
       \"max\": %.1f, \"mean\": %.1f}"
      h.h_count (quantile h 0.5) (quantile h 0.95) (quantile h 0.99)
      h.h_max
      (h.h_sum /. float_of_int h.h_count)

let reset () =
  (stack ()) := [];
  locked (fun () ->
      c.ring <- [||];
      c.total <- 0;
      c.next_id <- 0;
      Hashtbl.iter
        (fun _ (ct : Counter.t) -> Atomic.set ct.Counter.v 0)
        Counter.registry;
      Hashtbl.iter
        (fun _ (h : Histogram.t) ->
          h.Histogram.count <- 0;
          h.Histogram.sum <- 0.;
          h.Histogram.min_v <- infinity;
          h.Histogram.max_v <- neg_infinity;
          Array.fill h.Histogram.buckets 0 Histogram.n_buckets 0)
        Histogram.registry)

(* A dump is a self-contained marshalable snapshot: plain records,
   strings, floats and int arrays only, so it crosses the pool's
   [Marshal] pipe unchanged. *)
type dump = {
  d_spans : span list; (* oldest first; open spans closed at dump time *)
  d_dropped : int;
  d_counters : (string * int) list;
  d_hists : (string * hist_summary) list;
}

let spans_u () =
  let cap = Array.length c.ring in
  let live = min c.total cap in
  List.init live (fun i -> c.ring.((c.total - live + i) mod cap))

let dump () =
  let now = now_us () in
  let close s =
    if s.dur_us < 0. then { s with dur_us = now -. s.start_us } else s
  in
  locked (fun () ->
      {
        d_spans = List.map close (spans_u ());
        d_dropped = dropped ();
        d_counters = counters_u ();
        d_hists = histograms_u ();
      })

let empty_dump =
  { d_spans = []; d_dropped = 0; d_counters = []; d_hists = [] }

(* Fold a worker's dump into this collector.  Span ids are remapped to
   fresh local ids (parent links follow; a parent lost to the worker's
   own ring wrap becomes -1), and every span is tagged with [~tid] so
   traces distinguish workers.  Counters and histograms add up. *)
let merge ?(tid = 0) (d : dump) =
  (* inlined find-or-create: Counter.make/Histogram.make take the lock,
     which this whole fold already holds *)
  let counter name =
    match Hashtbl.find_opt Counter.registry name with
    | Some c -> c
    | None ->
        let c = { Counter.name; v = Atomic.make 0 } in
        Hashtbl.add Counter.registry name c;
        c
  in
  let histogram name =
    match Hashtbl.find_opt Histogram.registry name with
    | Some h -> h
    | None ->
        let h =
          { Histogram.name; count = 0; sum = 0.; min_v = infinity;
            max_v = neg_infinity;
            buckets = Array.make Histogram.n_buckets 0 }
        in
        Hashtbl.add Histogram.registry name h;
        h
  in
  locked (fun () ->
      let remap = Hashtbl.create 64 in
      List.iter
        (fun (s : span) ->
          let id = fresh_id () in
          Hashtbl.replace remap s.id id;
          let parent =
            match Hashtbl.find_opt remap s.parent with
            | Some p -> p
            | None -> -1
          in
          push_span { s with id; parent; tid })
        d.d_spans;
      c.total <- c.total + d.d_dropped (* dropped spans stay counted *);
      List.iter
        (fun (name, v) ->
          let ct = counter name in
          ignore (Atomic.fetch_and_add ct.Counter.v v))
        d.d_counters;
      List.iter
        (fun (name, hs) ->
          let h = histogram name in
          h.Histogram.count <- h.Histogram.count + hs.h_count;
          h.Histogram.sum <- h.Histogram.sum +. hs.h_sum;
          if hs.h_min < h.Histogram.min_v then h.Histogram.min_v <- hs.h_min;
          if hs.h_max > h.Histogram.max_v then h.Histogram.max_v <- hs.h_max;
          Array.iteri
            (fun i n ->
              h.Histogram.buckets.(i) <- h.Histogram.buckets.(i) + n)
            hs.h_buckets)
        d.d_hists)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* The tree's one JSON string escaper: Obs is beneath every other
   library, so the others share this one. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let span_fields (s : span) =
  Printf.sprintf
    "\"id\": %d, \"parent\": %d, \"tid\": %d, \"name\": \"%s\", \"item\": \
     \"%s\", \"start_us\": %.1f, \"dur_us\": %.1f"
    s.id s.parent s.tid (json_escape s.name) (json_escape s.item) s.start_us
    (max 0. s.dur_us)

let hist_json (name, h) =
  let buckets =
    Array.to_list h.h_buckets |> List.map string_of_int |> String.concat ", "
  in
  Printf.sprintf
    "{\"type\": \"hist\", \"name\": \"%s\", \"count\": %d, \"sum_us\": %.1f, \
     \"min_us\": %.2f, \"max_us\": %.2f, \"buckets\": [%s]}"
    (json_escape name) h.h_count h.h_sum h.h_min h.h_max buckets

(* The JSONL export: a meta line, then one line per span (oldest first),
   counter and histogram.  Every line is a complete JSON object with a
   "type" discriminator, so consumers can stream and skip. *)
let to_jsonl () =
  let d = dump () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\": \"meta\", \"schema\": \"obs-1\", \"pid\": %d, \"spans\": \
        %d, \"dropped\": %d}\n"
       (Unix.getpid ()) (List.length d.d_spans) d.d_dropped);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\": \"span\", %s}\n" (span_fields s)))
    d.d_spans;
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\": \"counter\", \"name\": \"%s\", \"value\": %d}\n"
           (json_escape name) v))
    d.d_counters;
  List.iter
    (fun h ->
      Buffer.add_string buf (hist_json h);
      Buffer.add_char buf '\n')
    d.d_hists;
  Buffer.contents buf

(* The Chrome trace-event export: complete ("ph":"X") events carrying
   ts/dur in microseconds; counters become "ph":"C" counter samples at
   the end of the timeline.  Loads directly in chrome://tracing and
   Perfetto. *)
let to_chrome () =
  let d = dump () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  List.iter
    (fun (s : span) ->
      emit
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"obs\", \"ph\": \"X\", \"ts\": \
            %.1f, \"dur\": %.1f, \"pid\": %d, \"tid\": %d, \"args\": \
            {\"item\": \"%s\", \"id\": %d, \"parent\": %d}}"
           (json_escape s.name) s.start_us (max 0. s.dur_us) (Unix.getpid ())
           s.tid (json_escape s.item) s.id s.parent))
    d.d_spans;
  let ts = now_us () in
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"obs\", \"ph\": \"C\", \"ts\": \
            %.1f, \"pid\": %d, \"args\": {\"value\": %d}}"
           (json_escape name) ts (Unix.getpid ()) v))
    d.d_counters;
  Buffer.add_string buf
    (Printf.sprintf
       "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"schema\": \
        \"obs-1\", \"dropped\": %d}}\n"
       d.d_dropped);
  Buffer.contents buf

(* Atomic writes (temp + rename): a killed run cannot leave a torn
   trace file, matching the tree's journal and generator conventions. *)
let write_file path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let write_jsonl path = write_file path (to_jsonl ())
let write_chrome path = write_file path (to_chrome ())

(* Aggregate per-span-name totals, for embedding in runner reports. *)
let span_totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      if s.dur_us >= 0. then begin
        let n, t =
          match Hashtbl.find_opt tbl s.name with
          | Some (n, t) -> (n, t)
          | None -> (0, 0.)
        in
        Hashtbl.replace tbl s.name (n + 1, t +. s.dur_us)
      end)
    (spans ());
  Hashtbl.fold (fun name nt acc -> (name, nt) :: acc) tbl []
  |> List.sort compare

(* The report-embedded metrics object: counters, per-phase span totals
   and histogram summaries as one JSON value (no trailing newline). *)
let summary_json () =
  let counters =
    counters ()
    |> List.map (fun (n, v) -> Printf.sprintf "\"%s\": %d" (json_escape n) v)
    |> String.concat ", "
  in
  let spans_j =
    span_totals ()
    |> List.map (fun (n, (count, total)) ->
           Printf.sprintf "\"%s\": {\"count\": %d, \"total_us\": %.1f}"
             (json_escape n) count total)
    |> String.concat ", "
  in
  let hists =
    histograms ()
    |> List.map (fun (n, h) ->
           Printf.sprintf
             "\"%s\": {\"count\": %d, \"sum_us\": %.1f, \"max_us\": %.2f}"
             (json_escape n) h.h_count h.h_sum h.h_max)
    |> String.concat ", "
  in
  Printf.sprintf
    "{\"counters\": {%s}, \"spans\": {%s}, \"histograms\": {%s}, \
     \"dropped_spans\": %d}"
    counters spans_j hists (dropped ())

(* ------------------------------------------------------------------ *)
(* Crash flight recorder                                               *)
(* ------------------------------------------------------------------ *)

(* A SIGKILLed pool worker, a wedged-and-killed serve worker and a
   poison campaign seed all die without reaching any export path; the
   flight recorder is the post-mortem for exactly those deaths.  While
   armed, the collector appends periodic (and caller-forced) checkpoint
   lines — each a self-contained JSON object carrying the last few
   spans (open ones flagged) and the counters — to an append-only
   journal, flushing each line, so whatever killed the process finds
   the last checkpoint intact on disk.  The file follows the tree's
   journal conventions (one JSON object per line, torn tail dropped by
   readers); appending rather than truncating means a restart after
   [kill -9] cannot erase the previous life's evidence. *)

type flight = {
  f_oc : out_channel;
  f_interval_us : float;
  f_last : int; (* spans per checkpoint *)
  mutable f_due_us : float;
}

let flight_state : flight option ref = ref None (* guarded by [lock] *)
let flight_active () = locked (fun () -> !flight_state <> None)

let checkpoint_line_u f reason =
  let now = now_us () in
  (* last [f_last] spans straight off the ring — never the whole ring:
     checkpoints fire per job/seed, and walking 65536 slots each time
     would turn a campaign shard quadratic *)
  let spans =
    let cap = Array.length c.ring in
    let live = min c.total cap in
    let keep = min f.f_last live in
    List.init keep (fun i -> c.ring.((c.total - keep + i) mod cap))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\": \"lkflight-1\", \"pid\": %d, \"ts_us\": %.1f, \
        \"reason\": \"%s\", \"dropped\": %d, \"spans\": ["
       (Unix.getpid ()) now (json_escape reason) (dropped ()));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "{%s, \"open\": %b}" (span_fields s) (s.dur_us < 0.)))
    spans;
  Buffer.add_string buf "], \"counters\": {";
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape n) v))
    (counters_u ());
  Buffer.add_string buf "}}";
  Buffer.contents buf

let flight_checkpoint_u reason =
  match !flight_state with
  | None -> ()
  | Some f ->
      let line = checkpoint_line_u f reason in
      output_string f.f_oc line;
      output_char f.f_oc '\n';
      flush f.f_oc;
      f.f_due_us <- now_us () +. f.f_interval_us

let flight_checkpoint ?(reason = "checkpoint") () =
  locked (fun () -> flight_checkpoint_u reason)

let () =
  flight_tick_u :=
    fun now ->
      match !flight_state with
      | Some f when now >= f.f_due_us -> flight_checkpoint_u "interval"
      | _ -> ()

(* The previous file is closed before the new one opens: a forked
   worker re-arming has already closed the descriptor it inherited, and
   closing that number after the open could close the new file. *)
let flight_start ?(interval_us = 500_000.) ?(last = 32) path =
  locked (fun () ->
      Option.iter (fun old -> close_out_noerr old.f_oc) !flight_state;
      flight_state := None;
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
      in
      flight_state :=
        Some
          { f_oc = oc; f_interval_us = interval_us; f_last = max 1 last;
            f_due_us = now_us () +. interval_us })

let flight_stop () =
  locked (fun () ->
      match !flight_state with
      | None -> ()
      | Some f ->
          flight_checkpoint_u "stop";
          close_out_noerr f.f_oc;
          flight_state := None)
