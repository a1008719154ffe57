(* Workload [sat-large]: a seeded draw, without replacement, from the
   committed pool in lkbench/sat_pool, each test checked with the symbolic backend
   (Oracle.run ~backend:Sat).  The pool holds diygen cycles of size 6
   and 7 padded with two bystander writer threads (10^4 to 1.6*10^5
   candidates, 0.1 to 3 s each under batch enumeration) and the scaled
   budget-breakers big-allow-N / big-forbid-K (up to 16 writers, which
   enumeration cannot decide).  Nearly all of its time is in Solve and
   lib/sat, which [corpus] never reaches.

   Golden verdicts (sat_pool/POOL) come from the uncapped batch
   enumerator — an engine independent of the solver — for the padded
   cycles, and by construction for the budget-breakers;
   [lkbench --regen-sat-pool] rebuilds the pool and its verdicts. *)

open Common

let pool_dir = Filename.concat "lkbench" "sat_pool"
let pool_file = Filename.concat pool_dir "POOL"

type entry = { file : string; source : string; expected : Exec.Check.verdict }

let load () =
  lines_of pool_file
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ file; v; _origin ] -> (
             match verdict_of_string v with
             | Some expected ->
                 { file; source = read_file (Filename.concat pool_dir file); expected }
             | None -> failwith ("sat_pool/POOL: bad verdict: " ^ line))
         | _ -> failwith ("sat_pool/POOL: bad line: " ^ line))
  |> Array.of_list

let rng seed = Random.State.make [| seed; 0x736174 |]

(* The seed fixes the order of the draw. *)
let inputs_digest seed =
  Digest.string
    (String.concat "\n" (Array.to_list (Array.map (fun e -> e.file) (shuffle (rng seed) (load ())))))

let check test =
  Exec.Oracle.run ~budget:(Exec.Budget.start Exec.Budget.default)
    ~backend:Exec.Check.Sat Lkmm.oracle test

let run ~seed ~seconds =
  let pool = load () in
  let meter = Meter.start ~setup:Wl_corpus.setup in
  let ops = ref 0 and failed = ref 0 and correct = ref true in
  let visit ~record e =
    let test = Litmus.parse e.source in
    let c0 = cpu_self () in
    let r = check test in
    let dt = cpu_self () -. c0 in
    if record then begin
      Meter.record meter ~ops:1 dt;
      incr ops
    end;
    match r.Exec.Check.verdict with
    | Exec.Check.Unknown _ -> if record then incr failed
    | v ->
        if v <> e.expected then begin
          correct := false;
          wrong "%s: %s, golden %s" e.file (verdict_name v) (verdict_name e.expected)
        end
  in
  Array.iter (visit ~record:false) pool;
  (* drawn without replacement: every pass visits each pool test once,
     in a fresh seeded order, so the mix is the same in every run *)
  let r = rng seed in
  let n = Array.length pool in
  Meter.close meter;
  let t0 = now () in
  let order = ref [||] and i = ref 0 in
  while now () -. t0 < seconds || !i < n do
    if !i mod n = 0 then order := shuffle r pool;
    visit ~record:true !order.(!i mod n);
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
      ("ops", "(test, LK) verdicts through the SAT backend: ops_per_ref_s is verdicts_per_s")
      :: ("pool", Printf.sprintf "%d tests, %d passes" n (!i / n))
      :: notes;
  }

let trace ~seed ~seconds =
  let pool = load () in
  let order = shuffle (rng seed) pool in
  let tr = Btrace.create () in
  let structures = ref 0 and sem_structures = ref 0 and events = ref 0 in
  let conflicts = ref 0 and decisions = ref 0 and checks = ref 0 in
  let passes = ref 0 and wall_us = ref 0. and overheads = ref [] in
  let correct = ref true in
  let module X = Exec in
  Obs.reset ();
  let t_start = now () in
  while !passes = 0 || now () -. t_start < seconds do
    Obs.set_enabled false;
    let u0 = now () in
    Array.iter (fun e -> ignore (check (Litmus.parse e.source))) order;
    let untraced = now () -. u0 in
    Obs.set_enabled true;
    let w0 = now () in
    Array.iter
      (fun e ->
        Btrace.span ~item:e.file tr "sat.check" (fun () ->
            incr checks;
            let test = Btrace.span tr "litmus.parse" (fun () -> Litmus.parse e.source) in
            let sks =
              Btrace.span tr "exec.sem" (fun () -> List.of_seq (X.skeletons test))
            in
            sem_structures := !sem_structures + List.length sks;
            List.iter (fun (sk : X.skeleton) -> events := !events + Array.length sk.X.sk_events) sks;
            let r = Btrace.span ~item:e.file tr "solve" (fun () -> check test) in
            (match r.Exec.Check.sat with
            | Some s ->
                conflicts := !conflicts + s.Exec.Check.conflicts;
                decisions := !decisions + s.Exec.Check.decisions
            | None -> ());
            (* Solve stops at the first satisfiable structure: the
               witness's events name it *)
            (structures :=
               !structures
               +
               match r.Exec.Check.witness with
               | None -> List.length sks
               | Some w ->
                   let rec index i = function
                     | [] -> 0
                     | (sk : X.skeleton) :: rest ->
                         if sk.X.sk_events = w.X.events then i + 1 else index (i + 1) rest
                   in
                   index 0 sks);
            (match r.Exec.Check.witness with
            | Some w ->
                let ok =
                  Btrace.span tr "solve.revalidate" (fun () ->
                      X.coherent w && Lkmm.consistent w && Replica.satisfies test w)
                in
                if not ok then begin
                  correct := false;
                  wrong "%s: SAT witness fails re-validation" e.file
                end
            | None -> ());
            if r.Exec.Check.verdict <> e.expected then begin
              correct := false;
              wrong "%s (traced): %s, golden %s" e.file
                (verdict_name r.Exec.Check.verdict) (verdict_name e.expected)
            end))
      order;
    let traced = now () -. w0 in
    wall_us := !wall_us +. (1e6 *. traced);
    overheads := (traced -. untraced) :: !overheads;
    incr passes
  done;
  Obs.set_enabled false;
  let obs name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ())) in
  let propagations = obs "solve.propagations" in
  let mismatches =
    List.filter_map
      (fun (name, mine) ->
        if mine = obs name then None
        else Some (Printf.sprintf "%s bench=%d obs=%d" name mine (obs name)))
      [ ("solve.structures", !structures); ("solve.conflicts", !conflicts) ]
  in
  List.iter (fun m -> wrong "count mismatch: %s" m) mismatches;
  let trace_base = Btrace.export ~workload:"sat-large" ~seed in
  let per x = x /. float_of_int !passes in
  let cnt n = per (float_of_int n) in
  let cov, cov_ok =
    Spec.coverage tr ~wall_us:!wall_us ~passes:!passes ~overhead_s:(median !overheads)
  in
  if not cov_ok then wrong "spans cover %.3f of the traced wall time" (List.assoc "trace.coverage" cov);
  {
    correct = !correct && mismatches = [] && cov_ok;
    attempted = !checks;
    failed = 0;
    metrics =
      Spec.complete_layers
        ([
           ("litmus.parse_us", per (Btrace.self_us tr "litmus.parse"));
           ("exec.sem_us", per (Btrace.self_us tr "exec.sem"));
           ("exec.structures", cnt !sem_structures);
           ("exec.events", cnt !events);
           ("solve.total_us", per (Btrace.self_us tr "solve"));
           ("solve.revalidate_us", per (Btrace.self_us tr "solve.revalidate"));
           ("solve.structures", cnt !structures);
           ("solve.unattributed_us", per (Btrace.self_us tr "sat.check"));
           ("sat.conflicts", cnt !conflicts);
           ("sat.decisions", cnt !decisions);
           ("sat.propagations", cnt propagations);
         ]
        @ cov);
    notes =
      [
        ("passes", string_of_int !passes);
        ("counts", "solve.structures, solve.conflicts equal the Obs counters");
        ("trace", trace_base ^ ".{json,jsonl}");
      ];
  }

(* ------------------------------------------------------------------ *)
(* Regenerating the pool                                               *)
(* ------------------------------------------------------------------ *)

(* diygen seeds (default vocabulary) whose padded tests span 10^4 to
   1.6*10^5 candidates, Allow and Forbid mixed *)
let diy_seeds =
  [
    (6, [ 21; 61; 82; 211; 306; 334; 794; 982; 1244; 1278; 1750; 2076 ]);
    (7, [ 181; 237; 344; 436; 457; 644; 739; 781; 927; 988 ]);
  ]

(* Two bystander threads, each writing a fresh value to every location
   of the test: the coherence orders multiply while the cycle itself is
   untouched. *)
let pad (t : Litmus.Ast.t) =
  let src = Litmus.to_string t in
  let locs = List.sort_uniq compare (Litmus.Ast.globals t) in
  let n = Array.length t.Litmus.Ast.threads in
  let thread k v =
    Printf.sprintf "P%d(%s) {\n%s}\n\n" k
      (String.concat ", " (List.map (fun l -> "int *" ^ l) locs))
      (String.concat "" (List.map (fun l -> Printf.sprintf "  WRITE_ONCE(*%s, %d);\n" l v) locs))
  in
  let lines = String.split_on_char '\n' src in
  let is_cond l =
    List.exists
      (fun p -> String.length l >= String.length p && String.sub l 0 (String.length p) = p)
      [ "exists"; "~exists"; "forall" ]
  in
  let body =
    List.concat_map
      (fun l -> if is_cond l then [ thread n 7 ^ thread (n + 1) 8 ^ l ] else [ l ])
      lines
  in
  match body with
  | first :: rest when String.length first > 2 && String.sub first 0 2 = "C " ->
      String.concat "\n" ((first ^ "+pad2") :: rest)
  | _ -> failwith "pad: unexpected test layout"

(* One read racing N same-location writers: ~N!*N candidates, Allow. *)
let big_allow n =
  let b = Buffer.create 256 in
  Printf.bprintf b "C big-allow-%d\n{ }\nP0(int *x) { int r0 = READ_ONCE(*x); }\n" n;
  for i = 1 to n do
    Printf.bprintf b "P%d(int *x) { WRITE_ONCE(*x, 1); }\n" i
  done;
  Buffer.add_string b "exists (0:r0=1)\n";
  Buffer.contents b

(* SB+mbs with K bystander writers on a third location: Forbid. *)
let big_forbid k =
  let b = Buffer.create 256 in
  Printf.bprintf b "C big-forbid-%d\n{ }\n" k;
  Buffer.add_string b
    "P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_mb(); int r0 = READ_ONCE(*y); }\n";
  Buffer.add_string b
    "P1(int *x, int *y) { WRITE_ONCE(*y, 1); smp_mb(); int r1 = READ_ONCE(*x); }\n";
  for i = 2 to k + 1 do
    Printf.bprintf b "P%d(int *z) { WRITE_ONCE(*z, 1); }\n" i
  done;
  Buffer.add_string b "exists ((0:r0=0 /\\ 1:r1=0))\n";
  Buffer.contents b

let regen () =
  ensure_dir pool_dir;
  let entries = ref [] in
  let add file source verdict origin =
    write_file (Filename.concat pool_dir file) source;
    Printf.printf "%s %s %s\n%!" file verdict origin;
    entries := Printf.sprintf "%s %s %s" file verdict origin :: !entries
  in
  List.iter
    (fun (size, seeds) ->
      List.iter
        (fun seed ->
          match Diygen.test_of_seed ~size seed with
          | None -> failwith (Printf.sprintf "diygen size %d seed %d realises nothing" size seed)
          | Some t ->
              let source = pad t in
              (* the uncapped batch enumerator: an engine independent of
                 the solver the workload measures *)
              let r = Exec.Oracle.run Lkmm.oracle (Litmus.parse source) in
              add (Printf.sprintf "diy%d-%d.litmus" size seed) source
                (verdict_name r.Exec.Check.verdict) "batch")
        seeds)
    diy_seeds;
  List.iter
    (fun n -> add (Printf.sprintf "big-allow-%d.litmus" n) (big_allow n) "Allow" "construction")
    [ 10; 12; 14; 16 ];
  List.iter
    (fun k -> add (Printf.sprintf "big-forbid-%d.litmus" k) (big_forbid k) "Forbid" "construction")
    [ 10; 12; 14; 16 ];
  write_file pool_file
    ("# file golden-verdict origin  (regenerate with: lkbench --regen-sat-pool)\n"
    ^ String.concat "\n" (List.rev !entries)
    ^ "\n")
