(* The traced run's enumerative check: the loop of Exec.Check.run,
   rebuilt from the layers' public entry points so that each call can be
   timed from outside —

     Execution.skeletons      exec.sem       (a separate call: the
                                              enumerator builds its own)
     Execution.of_test_seq    exec.enumerate (each candidate forced)
     Execution.coherent(_mask) exec.prefilter
     the oracle's batch/scalar model         <layer>.model

   and the check span's own remainder (buffering, compatibility tests,
   tallies) is check.unattributed.  Its counts are compared with the
   library's own Obs counters after a real Oracle.run pass over the
   same inputs, so a replica that drifted from Check.run would fail the
   run rather than mis-attribute it. *)

type model = { layer : string; oracle : Exec.Oracle.t }

type counts = {
  mutable checks : int;
  mutable candidates : int;
  mutable prefiltered : int;
  mutable structures : int;
  mutable events : int;
  mutable lk_consistent : int;
  mutable flushes : int;
  mutable flushed : int;
}

let counts () =
  {
    checks = 0;
    candidates = 0;
    prefiltered = 0;
    structures = 0;
    events = 0;
    lk_consistent = 0;
    flushes = 0;
    flushed = 0;
  }

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

let satisfies (test : Litmus.Ast.t) x =
  match test.Litmus.Ast.quant with
  | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> Exec.satisfies_cond x
  | Litmus.Ast.Q_forall -> not (Exec.satisfies_cond x)

let check tr c (m : model) (test : Litmus.Ast.t) =
  let module X = Exec in
  let item = test.Litmus.Ast.name in
  Btrace.span ~item tr "check" (fun () ->
      c.checks <- c.checks + 1;
      Btrace.span ~item tr "exec.sem" (fun () ->
          Seq.iter
            (fun (sk : X.skeleton) ->
              c.structures <- c.structures + 1;
              c.events <- c.events + Array.length sk.X.sk_events)
            (X.skeletons test));
      let matching = ref false in
      let decided x ok =
        if ok then begin
          if m.layer = "lkmm" then c.lk_consistent <- c.lk_consistent + 1;
          if satisfies test x then matching := true
        end
      in
      let next = ref (X.of_test_seq test) in
      let force () =
        Btrace.span ~emit:false tr "exec.enumerate" (fun () ->
            match !next () with
            | Seq.Nil -> None
            | Seq.Cons (x, rest) ->
                next := rest;
                c.candidates <- c.candidates + 1;
                Some x)
      in
      let model_span = m.layer ^ ".model" in
      (match m.oracle.Exec.Oracle.batch with
      | None ->
          let (module M : Exec.Check.MODEL) = Exec.Oracle.model m.oracle () in
          let rec loop () =
            match force () with
            | None -> ()
            | Some x ->
                if
                  Btrace.span ~emit:false tr "exec.prefilter" (fun () ->
                      X.coherent x)
                then
                  decided x
                    (Btrace.span ~emit:false tr model_span (fun () ->
                         M.consistent x))
                else c.prefiltered <- c.prefiltered + 1;
                loop ()
          in
          loop ()
      | Some batch ->
          let batch_fn = batch None in
          (* the buffering rule of Check.run: up to Rel.Batch.width
             candidates, cut wherever static compatibility breaks *)
          let memo = ref None in
          let compatible (y : X.t) (x : X.t) =
            y.X.events == x.X.events
            ||
            match !memo with
            | Some (ea, eb, r) when ea == y.X.events && eb == x.X.events -> r
            | _ ->
                let r = X.static_compatible y x in
                memo := Some (y.X.events, x.X.events, r);
                r
          in
          let buf = ref [] and len = ref 0 in
          let flush () =
            if !len > 0 then begin
              let xs = Array.of_list (List.rev !buf) in
              buf := [];
              len := 0;
              let full = Rel.Batch.full_mask (Array.length xs) in
              c.flushes <- c.flushes + 1;
              c.flushed <- c.flushed + Array.length xs;
              let live =
                Btrace.span ~item tr "exec.prefilter" (fun () ->
                    X.coherent_mask ~mask:full xs)
              in
              c.prefiltered <- c.prefiltered + popcount (full land lnot live);
              let ok =
                if live = 0 then 0
                else
                  Btrace.span ~item tr model_span (fun () ->
                      batch_fn ~coherent:true ~mask:live xs)
              in
              Array.iteri
                (fun i x ->
                  let bit = 1 lsl i in
                  if live land bit <> 0 then decided x (ok land bit <> 0))
                xs
            end
          in
          let rec loop () =
            match force () with
            | None -> flush ()
            | Some x ->
                (match !buf with
                | y :: _ when not (compatible y x) -> flush ()
                | _ -> ());
                buf := x :: !buf;
                incr len;
                if !len = Rel.Batch.width then flush ();
                loop ()
          in
          loop ());
      if !matching then Exec.Check.Allow else Exec.Check.Forbid)

(* The library's own counters over a real Oracle.run pass of the same
   checks: [run_real ()] must perform exactly the checks the replica
   did.  Returns the mismatches, as "name bench=<n> obs=<m>". *)
let compare_with_obs c run_real =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  run_real ();
  let obs name =
    Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))
  in
  let pairs =
    [
      ("check.candidates", c.candidates);
      ("check.prefilter.hits", c.prefiltered);
      ("exec.structures", c.structures);
    ]
  in
  let bad =
    List.filter_map
      (fun (name, mine) ->
        let theirs = obs name in
        if mine = theirs then None
        else Some (Printf.sprintf "%s bench=%d obs=%d" name mine theirs))
      pairs
  in
  Obs.set_enabled was;
  bad

(* Per-layer metrics of the enumerative path, per replay pass. *)
let layer_metrics tr c ~passes =
  let per x = x /. float_of_int (max 1 passes) in
  let cnt n = per (float_of_int n) in
  [
    ("litmus.parse_us", per (Btrace.self_us tr "litmus.parse"));
    ("exec.sem_us", per (Btrace.self_us tr "exec.sem"));
    ("exec.structures", cnt c.structures);
    ("exec.events", cnt c.events);
    ("exec.enumerate_us", per (Btrace.self_us tr "exec.enumerate"));
    ("exec.candidates", cnt c.candidates);
    ("exec.prefilter_us", per (Btrace.self_us tr "exec.prefilter"));
    ("exec.prefiltered", cnt c.prefiltered);
    ( "exec.prefilter_reject_ratio",
      if c.candidates = 0 then 0.
      else float_of_int c.prefiltered /. float_of_int c.candidates );
    ("lkmm.model_us", per (Btrace.self_us tr "lkmm.model"));
    ("lkmm.consistent", cnt c.lk_consistent);
    ("cat.model_us", per (Btrace.self_us tr "cat.model"));
    ("cat.compile_us", per (Btrace.self_us tr "cat.compile"));
    ("c11.model_us", per (Btrace.self_us tr "c11.model"));
    ("check.total_us",
      per
        (List.fold_left
           (fun acc n -> acc +. Btrace.self_us tr n)
           0.
           [ "check"; "exec.sem"; "exec.enumerate"; "exec.prefilter";
             "lkmm.model"; "cat.model"; "c11.model" ]));
    ("check.unattributed_us", per (Btrace.self_us tr "check"));
    ( "check.batch_occupancy",
      if c.flushes = 0 then 0.
      else float_of_int c.flushed /. float_of_int c.flushes );
  ]
