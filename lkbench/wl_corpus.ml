(* Workload [corpus]: a closed loop over the golden corpus
   (corpus/MANIFEST, LK and C11 columns) and the paper battery
   (Harness.Battery, which holds the RCU tests), each test checked under
   native LK, lk.cat and — where a golden C11 verdict exists — C11,
   through the default Batch backend.  The Table-5 shape of use: small
   tests whose time is all enumeration, prefilter and model evaluation.
   Solve and campaign code is bypassed. *)

open Common

type model = Lk | Cat | C11

type item = {
  name : string;
  source : string;
  checks : (model * Exec.Check.verdict) list;  (** with golden verdicts *)
}

let corpus_dir = "corpus"

let load () =
  let verdict file s =
    match verdict_of_string s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "corpus/MANIFEST: %s: bad verdict %S" file s)
  in
  let corpus =
    lines_of (Filename.concat corpus_dir "MANIFEST")
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | [ file; lk; c11 ] ->
               {
                 name = file;
                 source = read_file (Filename.concat corpus_dir file);
                 checks =
                   [ (Lk, verdict file lk); (Cat, verdict file lk) ]
                   @ (if c11 = "-" then [] else [ (C11, verdict file c11) ]);
               }
           | _ -> failwith ("corpus/MANIFEST: bad line: " ^ line))
  in
  let battery =
    List.map
      (fun (e : Harness.Battery.entry) ->
        {
          name = e.Harness.Battery.name;
          source = e.Harness.Battery.source;
          checks =
            [ (Lk, e.Harness.Battery.lk); (Cat, e.Harness.Battery.lk) ]
            @ (match e.Harness.Battery.c11 with Some v -> [ (C11, v) ] | None -> []);
        })
      Harness.Battery.all
  in
  corpus @ battery

(* The seed fixes the visiting order. *)
let inputs seed =
  shuffle (Random.State.make [| seed; 0x636f7270 |]) (Array.of_list (load ()))

let inputs_digest seed =
  Digest.string (String.concat "\n" (Array.to_list (Array.map (fun it -> it.name) (inputs seed))))

let resolve cat = function
  | Lk -> { Replica.layer = "lkmm"; oracle = Lkmm.oracle }
  | Cat -> cat
  | C11 -> { Replica.layer = "c11"; oracle = c11_oracle }

let cat_model () = { Replica.layer = "cat"; oracle = cat_oracle () }

(* The program's set-up: lk.cat parsed and compiled into an oracle. *)
let setup () = ignore (Sys.opaque_identity (cat_model ()))

let budget () = Exec.Budget.start Exec.Budget.default

let run ~seed ~seconds =
  let order = inputs seed in
  let cat = cat_model () in
  let meter = Meter.start ~setup in
  let ops = ref 0 and failed = ref 0 and correct = ref true in
  let visit ~record it =
    let test = Litmus.parse it.source in
    List.iter
      (fun (m, expected) ->
        let c0 = cpu_self () in
        let r = Exec.Oracle.run ~budget:(budget ()) (resolve cat m).Replica.oracle test in
        let dt = cpu_self () -. c0 in
        if record then begin
          Meter.record meter ~ops:1 dt;
          incr ops
        end;
        match r.Exec.Check.verdict with
        | Exec.Check.Unknown _ -> if record then incr failed
        | v ->
            if v <> expected then begin
              correct := false;
              wrong "%s: %s, golden %s" it.name (verdict_name v) (verdict_name expected)
            end)
      it.checks
  in
  (* one verified warm-up pass: caches fill before timing starts *)
  Array.iter (visit ~record:false) order;
  let n = Array.length order in
  Meter.close meter;
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < seconds || !i < n do
    visit ~record:true order.(!i mod n);
    incr i;
    if !i mod n = 0 then Meter.close meter
  done;
  let metrics, notes =
    metered ~what:"reference time per Oracle.run call" ~wall:(now () -. t0) meter
      ~attempted:!ops ~failed:!failed
  in
  {
    correct = !correct;
    attempted = !ops;
    failed = !failed;
    metrics;
    notes =
      ("ops", "(test, model) verdicts: ops_per_ref_s is verdicts_per_s")
      :: ("tests", Printf.sprintf "%d tests, %d passes" n (!i / n))
      :: notes;
  }

let trace ~seed ~seconds =
  let order = inputs seed in
  let tr = Btrace.create () and c = Replica.counts () in
  let first = ref None in
  let passes = ref 0 and wall_us = ref 0. and overheads = ref [] in
  let correct = ref true in
  Obs.reset ();
  let t_start = now () in
  while !passes = 0 || now () -. t_start < seconds do
    (* the same inputs untraced, for the tracing overhead *)
    Obs.set_enabled false;
    let u0 = now () in
    let cat = cat_model () in
    Array.iter
      (fun it ->
        let test = Litmus.parse it.source in
        List.iter
          (fun (m, _) -> ignore (Exec.Oracle.run (resolve cat m).Replica.oracle test))
          it.checks)
      order;
    let untraced = now () -. u0 in
    Obs.set_enabled true;
    let w0 = now () in
    let cat = Btrace.span tr "cat.compile" cat_model in
    Array.iter
      (fun it ->
        let test = Btrace.span ~item:it.name tr "litmus.parse" (fun () -> Litmus.parse it.source) in
        List.iter
          (fun (m, expected) ->
            let v = Replica.check tr c (resolve cat m) test in
            if v <> expected then begin
              correct := false;
              wrong "%s (traced): %s, golden %s" it.name (verdict_name v) (verdict_name expected)
            end)
          it.checks)
      order;
    let traced = now () -. w0 in
    wall_us := !wall_us +. (1e6 *. traced);
    overheads := (traced -. untraced) :: !overheads;
    incr passes;
    if !first = None then first := Some { c with Replica.checks = c.Replica.checks }
  done;
  Obs.set_enabled false;
  let trace_base = Btrace.export ~workload:"corpus" ~seed in
  let first = Option.get !first in
  let mismatches =
    Replica.compare_with_obs first (fun () ->
        let cat = cat_model () in
        Array.iter
          (fun it ->
            let test = Litmus.parse it.source in
            List.iter
              (fun (m, _) -> ignore (Exec.Oracle.run (resolve cat m).Replica.oracle test))
              it.checks)
          order)
  in
  List.iter (fun m -> wrong "count mismatch: %s" m) mismatches;
  let cov, cov_ok =
    Spec.coverage tr ~wall_us:!wall_us ~passes:!passes ~overhead_s:(median !overheads)
  in
  if not cov_ok then wrong "spans cover %.3f of the traced wall time" (List.assoc "trace.coverage" cov);
  {
    correct = !correct && mismatches = [] && cov_ok;
    attempted = c.Replica.checks;
    failed = 0;
    metrics = Spec.complete_layers (Replica.layer_metrics tr c ~passes:!passes @ cov);
    notes =
      [
        ("passes", string_of_int !passes);
        ("counts", "check.candidates, check.prefilter.hits, exec.structures equal the Obs counters");
        ("trace", trace_base ^ ".{json,jsonl}");
      ];
  }
