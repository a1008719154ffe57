(* Bench-side spans for the traced run.

   The bench times its own calls into each layer's public functions; no
   probe lives in lib/.  Every span's self time (its duration minus the
   part its child spans cover) is added to its layer's total, so the
   layer totals plus the time outside any span add up to the wall time
   exactly, and what a container span (a check, a request, a seed) does
   between its children is reported as that container's own number,
   never folded into a layer.

   [span] also pushes the span into the Obs collector ([Obs.record]),
   so the run exports as a Chrome trace next to the library's own
   spans; [~emit:false] skips that for per-candidate calls, which would
   otherwise flood the collector's ring buffer. *)

type t = {
  self : (string, float ref) Hashtbl.t;  (** layer -> self time, µs *)
  total : (string, float ref) Hashtbl.t;  (** layer -> inclusive time, µs *)
  mutable stack : float ref list;  (** child time of each open span *)
  mutable top : float;  (** total duration of top-level spans, µs *)
}

let create () =
  {
    self = Hashtbl.create 32;
    total = Hashtbl.create 32;
    stack = [];
    top = 0.;
  }

let bump tbl name x =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. x
  | None -> Hashtbl.replace tbl name (ref x)

let span ?(emit = true) ?item t name f =
  let children = ref 0. in
  t.stack <- children :: t.stack;
  let t0 = Obs.now_us () in
  let finish () =
    let dur = Obs.now_us () -. t0 in
    t.stack <- List.tl t.stack;
    bump t.self name (dur -. !children);
    bump t.total name dur;
    (match t.stack with p :: _ -> p := !p +. dur | [] -> t.top <- t.top +. dur);
    if emit then Obs.record ?item ~start_us:t0 ~dur_us:dur ("lkbench." ^ name)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let self_us t name =
  match Hashtbl.find_opt t.self name with Some r -> !r | None -> 0.

let total_us t name =
  match Hashtbl.find_opt t.total name with Some r -> !r | None -> 0.

let attributed_us t = t.top

(* Trace files of one traced run, next to the result. *)
let export ~workload ~seed =
  let base =
    Filename.concat Common.out_dir (Printf.sprintf "trace-%s-%d" workload seed)
  in
  Common.ensure_dir Common.out_dir;
  Obs.write_chrome (base ^ ".json");
  Obs.write_jsonl (base ^ ".jsonl");
  base
