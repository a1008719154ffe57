(* Tests for candidate-execution enumeration: event construction,
   dependency extraction, rf/co well-formedness, final states and the
   checker. *)

module E = Exec.Event

let parse = Litmus.parse

(* A check of one model: {!Exec.Check.run} with a list of one. *)
let run1 ?budget m t = List.hd (Exec.Check.run ?budget [ Exec.Check.model m ] t)

let execs src = Exec.of_test (parse src)

let one_thread body =
  Printf.sprintf "C t\n{ x=0; y=0; z=0; }\nP0(int *x, int *y, int *z) {\n%s\n}\nexists (x=0)"
    body

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let events_of_thread x tid =
  Array.to_list x.Exec.events |> List.filter (fun (e : E.t) -> e.tid = tid)

let test_event_mapping () =
  (* Table 3: each primitive yields exactly its events *)
  let check body expected =
    let x = List.hd (execs (one_thread body)) in
    let evs =
      events_of_thread x 0
      |> List.map (fun (e : E.t) -> (e.dir, e.annot))
    in
    Alcotest.(check bool) body true (evs = expected)
  in
  check "WRITE_ONCE(x, 1);" [ (E.W, E.Once) ];
  check "smp_store_release(x, 1);" [ (E.W, E.Release) ];
  check "smp_mb();" [ (E.F, E.Mb) ];
  check "int r1 = xchg_relaxed(x, 1);" [ (E.R, E.Once); (E.W, E.Once) ];
  check "int r1 = xchg_acquire(x, 1);" [ (E.R, E.Acquire); (E.W, E.Once) ];
  check "int r1 = xchg_release(x, 1);" [ (E.R, E.Once); (E.W, E.Release) ];
  check "int r1 = xchg(x, 1);"
    [ (E.F, E.Mb); (E.R, E.Once); (E.W, E.Once); (E.F, E.Mb) ];
  check "int r1 = rcu_dereference(x);" [ (E.R, E.Once); (E.F, E.Rb_dep) ]

let test_init_writes () =
  let x = List.hd (execs (one_thread "WRITE_ONCE(x, 1);")) in
  let inits =
    Array.to_list x.Exec.events |> List.filter E.is_init
  in
  Alcotest.(check int) "one init per global" 3 (List.length inits);
  List.iter
    (fun (e : E.t) ->
      Alcotest.(check bool) "init is a write by no thread" true
        (e.dir = E.W && e.tid = -1))
    inits

let test_po_total_per_thread () =
  List.iter
    (fun x ->
      let evs = events_of_thread x 0 in
      List.iter
        (fun (a : E.t) ->
          List.iter
            (fun (b : E.t) ->
              if a.id <> b.id then
                Alcotest.(check bool) "po total in thread" true
                  (Rel.mem a.id b.id x.Exec.po || Rel.mem b.id a.id x.Exec.po))
            evs)
        evs)
    (execs (one_thread "WRITE_ONCE(x, 1);\nsmp_mb();\nint r1 = READ_ONCE(y);"))

(* ------------------------------------------------------------------ *)
(* Dependencies                                                        *)
(* ------------------------------------------------------------------ *)

let test_data_dep () =
  let x =
    execs (one_thread "int r1 = READ_ONCE(x);\nWRITE_ONCE(y, r1 + 1);")
    |> List.hd
  in
  Alcotest.(check int) "one data edge" 1 (Rel.cardinal x.Exec.data);
  Alcotest.(check bool) "read to write" true
    (Rel.exists
       (fun a b ->
         E.is_read x.Exec.events.(a) && E.is_write x.Exec.events.(b))
       x.Exec.data)

let test_addr_dep () =
  let x =
    execs
      "C a\n{ y=&z; z=0; }\nP0(int *y) {\n  int r1 = READ_ONCE(y);\n  int r2 = READ_ONCE(*r1);\n}\nexists (0:r2=0)"
    |> List.hd
  in
  Alcotest.(check int) "one addr edge" 1 (Rel.cardinal x.Exec.addr)

let test_ctrl_dep () =
  let x =
    execs
      (one_thread
         "int r1 = READ_ONCE(x);\nif (r1 == 0) {\n  WRITE_ONCE(y, 1);\n  smp_mb();\n}")
    |> List.hd
  in
  (* ctrl covers every event in the taken branch *)
  Alcotest.(check int) "ctrl edges" 2 (Rel.cardinal x.Exec.ctrl)

let test_ctrl_scope_ends_at_join () =
  let x =
    execs
      (one_thread
         "int r1 = READ_ONCE(x);\nif (r1 == 0) {\n  WRITE_ONCE(y, 1);\n}\nWRITE_ONCE(z, 1);")
    |> List.hd
  in
  (* the write to z after the join carries no control dependency *)
  let z_writes =
    Array.to_list x.Exec.events
    |> List.filter (fun (e : E.t) -> E.is_write e && e.loc = "z")
  in
  List.iter
    (fun (e : E.t) ->
      Alcotest.(check bool) "no ctrl into z" false
        (Rel.exists (fun _ b -> b = e.id) x.Exec.ctrl))
    z_writes

let test_dep_chain_through_assign () =
  let x =
    execs
      (one_thread
         "int r1 = READ_ONCE(x);\nint r2 = r1 ^ r1;\nWRITE_ONCE(y, r2);")
    |> List.hd
  in
  (* data flows through the pure assignment: still one read-to-write edge *)
  Alcotest.(check int) "data through assign" 1 (Rel.cardinal x.Exec.data)

let test_rmw_edges () =
  let x = execs (one_thread "int r1 = xchg(x, 1);") |> List.hd in
  Alcotest.(check int) "one rmw edge" 1 (Rel.cardinal x.Exec.rmw);
  Rel.iter
    (fun a b ->
      Alcotest.(check bool) "rmw: read to write, same loc" true
        (E.is_read x.Exec.events.(a)
        && E.is_write x.Exec.events.(b)
        && x.Exec.events.(a).loc = x.Exec.events.(b).loc))
    x.Exec.rmw

(* ------------------------------------------------------------------ *)
(* Witness well-formedness, as properties over all enumerated          *)
(* executions of the battery                                           *)
(* ------------------------------------------------------------------ *)

let for_all_battery_execs f =
  List.for_all
    (fun (e : Harness.Battery.entry) ->
      List.for_all (f e) (Exec.of_test (Harness.Battery.test_of e)))
    Harness.Battery.all

let test_rf_wellformed () =
  Alcotest.(check bool) "rf wellformed" true
    (for_all_battery_execs (fun _ x ->
         (* each read has exactly one rf source; same loc; same value *)
         Rel.Iset.for_all
           (fun r ->
             let sources =
               Rel.fold
                 (fun w r' acc -> if r' = r then w :: acc else acc)
                 x.Exec.rf []
             in
             List.length sources = 1
             &&
             let w = List.hd sources in
             E.is_write x.Exec.events.(w)
             && x.Exec.events.(w).loc = x.Exec.events.(r).loc
             && x.Exec.events.(w).v = x.Exec.events.(r).v)
           x.Exec.reads))

let test_co_total_per_location () =
  Alcotest.(check bool) "co total per location" true
    (for_all_battery_execs (fun _ x ->
         let locs =
           Rel.Iset.fold
             (fun w acc ->
               let l = x.Exec.events.(w).E.loc in
               if List.mem l acc then acc else l :: acc)
             x.Exec.writes []
         in
         List.for_all
           (fun l ->
             let ws =
               Rel.Iset.filter
                 (fun w -> x.Exec.events.(w).E.loc = l)
                 x.Exec.writes
             in
             Rel.Iset.for_all
               (fun a ->
                 Rel.Iset.for_all
                   (fun b ->
                     a = b || Rel.mem a b x.Exec.co || Rel.mem b a x.Exec.co)
                   ws)
               ws
             && Rel.is_acyclic (Rel.restrict ws x.Exec.co))
           locs))

let test_init_co_first () =
  Alcotest.(check bool) "init writes are co-minimal" true
    (for_all_battery_execs (fun _ x ->
         Rel.Iset.for_all
           (fun i -> not (Rel.exists (fun _ b -> b = i) x.Exec.co))
           x.Exec.init_ws))

let test_fr_definition () =
  Alcotest.(check bool) "fr = rf^-1;co minus id" true
    (for_all_battery_execs (fun _ x ->
         Rel.equal x.Exec.fr
           (Rel.diff
              (Rel.seq (Rel.inverse x.Exec.rf) x.Exec.co)
              (Rel.id_of_set x.Exec.universe))))

let test_int_ext_partition () =
  Alcotest.(check bool) "int and ext partition distinct pairs" true
    (for_all_battery_execs (fun _ x ->
         Rel.is_empty (Rel.inter x.Exec.int_r x.Exec.ext_r)
         && Rel.equal
              (Rel.union x.Exec.int_r x.Exec.ext_r)
              (Rel.diff
                 (Rel.cartesian x.Exec.universe x.Exec.universe)
                 (Rel.id_of_set x.Exec.universe))))

(* ------------------------------------------------------------------ *)
(* Enumeration counts and final states                                 *)
(* ------------------------------------------------------------------ *)

let test_enumeration_counts () =
  (* MP: 2 reads with 2 possible values each; rf determined by value *)
  Alcotest.(check int) "MP candidates" 4
    (List.length (execs Harness.Battery.(find "MP").source));
  (* a single write and no reads: one execution *)
  Alcotest.(check int) "single write" 1
    (List.length (execs (one_thread "WRITE_ONCE(x, 1);")));
  (* two writes to the same location by different threads: 2 co orders *)
  Alcotest.(check int) "two co orders" 2
    (List.length
       (execs
          "C c\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }\nP1(int *x) { WRITE_ONCE(x, 2); }\nexists (x=1)"))

let test_conditionals_prune () =
  (* the branch not taken emits no events *)
  let xs =
    execs
      (one_thread
         "int r1 = READ_ONCE(x);\nif (r1 == 1) {\n  WRITE_ONCE(y, 1);\n}")
  in
  List.iter
    (fun x ->
      let r1 =
        Array.to_list x.Exec.events
        |> List.find (fun (e : E.t) -> E.is_read e)
      in
      let y_written =
        Array.to_list x.Exec.events
        |> List.exists (fun (e : E.t) ->
               E.is_write e && (not (E.is_init e)) && e.loc = "y")
      in
      Alcotest.(check bool) "write iff branch taken" (r1.v = 1) y_written)
    xs

let test_final_memory () =
  (* enumeration also yields co orders that contradict po; the coherent
     ones (kept by any model) must end with the last write *)
  let t = parse "C fm\n{ }\nP0(int *x) { WRITE_ONCE(x, 1);\nWRITE_ONCE(x, 2); }\nexists (x=2)" in
  let all = Exec.of_test t in
  let coherent = List.filter Models.Sc.consistent all in
  Alcotest.(check bool) "some execution is incoherent" true
    (List.length coherent < List.length all);
  List.iter
    (fun x ->
      Alcotest.(check int) "last write wins" 2 (Exec.final_mem x "x"))
    coherent

let test_computed_write_values () =
  (* the read-value domain must grow to include computed values: r1+1 *)
  let t =
    parse
      "C cv\n{ }\nP0(int *x, int *y) { int r1 = READ_ONCE(x); WRITE_ONCE(y, r1 + 1); }\nP1(int *x, int *y) { WRITE_ONCE(x, 1); int r2 = READ_ONCE(y); }\nexists (1:r2=2)"
  in
  let r = run1 (module Models.Sc) t in
  Alcotest.(check bool) "2 = 1+1 reachable" true
    (r.Exec.Check.verdict = Exec.Check.Allow)

let test_check_quantifiers () =
  let allow src = (run1 (module Models.Sc) (parse src)).Exec.Check.verdict in
  let base = "C q\n{ }\nP0(int *x) { WRITE_ONCE(x, 1); }\n" in
  Alcotest.(check bool) "exists sat" true (allow (base ^ "exists (x=1)") = Exec.Check.Allow);
  Alcotest.(check bool) "exists unsat" true (allow (base ^ "exists (x=2)") = Exec.Check.Forbid);
  (* forall x=1 holds in every execution: no violating execution *)
  Alcotest.(check bool) "forall holds" true (allow (base ^ "forall (x=1)") = Exec.Check.Forbid);
  Alcotest.(check bool) "forall violated" true (allow (base ^ "forall (x=2)") = Exec.Check.Allow)

let test_outcomes_cover_condition () =
  let t = parse Harness.Battery.(find "SB").source in
  let all = Exec.Check.allowed_outcomes (module Models.Sc) t in
  let weak o = Exec.holds t (fun v -> List.assoc (Exec.observable_name v) o) in
  (* SC allows 3 of the 4 SB outcomes; the weak one is absent *)
  Alcotest.(check int) "SC outcomes of SB" 3 (List.length all);
  Alcotest.(check bool) "no weak outcome" true
    (not (List.exists weak all));
  (* a verdict's outcomes are those of the candidates it visits, and it
     visits only structures where the weak outcome is possible *)
  let r = run1 (module Models.Sc) t in
  Alcotest.(check bool) "no weak outcome in the verdict's" true
    (List.for_all (fun (_, m) -> not m) r.Exec.Check.outcomes)

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

module B = Exec.Budget

let sb_src = Harness.Battery.(find "SB").source

let budget_reason (r : Exec.Check.result) =
  match r.Exec.Check.verdict with
  | Exec.Check.Unknown (Exec.Check.Budget_exceeded reason) -> Some reason
  | _ -> None

let test_budget_saturating () =
  Alcotest.(check int) "mul" 6 (B.sat_mul 2 3);
  (* saturates at the cap instead of wrapping negative *)
  Alcotest.(check bool) "mul saturates" true
    (B.sat_mul max_int 2 > 0 && B.sat_mul max_int 2 >= max_int / 2);
  Alcotest.(check bool) "mul idempotent at cap" true
    (B.sat_mul (B.sat_mul max_int 2) 2 = B.sat_mul max_int 2);
  Alcotest.(check int) "fact" 24 (B.sat_fact 4);
  Alcotest.(check bool) "fact saturates" true
    (B.sat_fact 64 = B.sat_mul max_int 2)

let test_budget_timeout () =
  let b = B.start (B.limits ~timeout:0.0 ()) in
  let r = run1 ~budget:b (module Models.Sc) (parse sb_src) in
  match budget_reason r with
  | Some (B.Timed_out _) -> ()
  | _ -> Alcotest.failf "expected Timed_out, got %s"
           (Exec.Check.verdict_to_string r.Exec.Check.verdict)

(* 2+2W's verdict stream holds four candidates (SB's holds one). *)
let test_budget_candidates () =
  let b = B.start (B.limits ~max_candidates:1 ()) in
  let r =
    run1 ~budget:b (module Models.Sc) (parse Harness.Battery.(find "2+2W").source)
  in
  match budget_reason r with
  | Some (B.Too_many_candidates 1) -> ()
  | _ -> Alcotest.failf "expected Too_many_candidates, got %s"
           (Exec.Check.verdict_to_string r.Exec.Check.verdict)

(* The cap counts the candidates of the structures the verdict stream
   enumerates: Coe-Coe-Coe-MbdWW-MbdWR-Fre's condition leaves one of its
   structures open, with 24 candidates, and refutes the other, which is
   not claimed, so a cap of 30 decides the test, as the solver does;
   over every candidate it trips. *)
let test_budget_claims_open () =
  let t =
    List.assoc "Coe-Coe-Coe-MbdWW-MbdWR-Fre.litmus" (Cpu_ratio.sample_tests 1)
  in
  let limits = B.limits ~max_candidates:30 () in
  let r = Lkmm.check ~budget:(B.start limits) t in
  Alcotest.(check string) "decided under the cap" "Forbid"
    (Exec.Check.verdict_to_string r.Exec.Check.verdict);
  Alcotest.(check int) "the verdict stream's candidates" 24
    r.Exec.Check.n_candidates;
  Alcotest.(check string) "as the solver decides" "Forbid"
    (Exec.Check.verdict_to_string
       (Exec.Oracle.run ~budget:(B.start limits) ~backend:Exec.Check.Sat
          Lkmm.oracle t)
         .Exec.Check.verdict);
  match Exec.of_test ~budget:(B.start limits) t with
  | _ -> Alcotest.fail "every candidate fits under the cap"
  | exception B.Exceeded (B.Too_many_candidates 30) -> ()

let test_budget_events () =
  let b = B.start (B.limits ~max_events:2 ()) in
  let r = run1 ~budget:b (module Models.Sc) (parse sb_src) in
  match budget_reason r with
  | Some (B.Too_many_events (_, 2)) -> ()
  | _ -> Alcotest.failf "expected Too_many_events, got %s"
           (Exec.Check.verdict_to_string r.Exec.Check.verdict)

let test_budget_enumeration_raises () =
  (* the raw enumeration raises the typed exception (Check.run converts) *)
  match Exec.of_test ~budget:(B.start (B.limits ~max_candidates:1 ())) (parse sb_src) with
  | _ -> Alcotest.fail "expected Exceeded"
  | exception B.Exceeded (B.Too_many_candidates _) -> ()

let test_budget_happy_path () =
  (* the default budget never changes a small test's verdict *)
  List.iter
    (fun name ->
      let t = parse Harness.Battery.(find name).source in
      let plain = (run1 (module Models.Sc) t).Exec.Check.verdict in
      let budgeted =
        (run1 ~budget:(B.start B.default) (module Models.Sc) t)
          .Exec.Check.verdict
      in
      Alcotest.(check bool) (name ^ " verdict unchanged") true
        (plain = budgeted))
    [ "SB"; "MP"; "LB" ]

(* ------------------------------------------------------------------ *)
(* Dot export                                                          *)
(* ------------------------------------------------------------------ *)

let test_dot_export () =
  let x = List.hd (execs Harness.Battery.(find "MP+wmb+rmb").source) in
  let dot = Exec.Dot.to_string x in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  (* one node per event, clusters per thread, rf edges labelled *)
  Array.iter
    (fun (e : E.t) ->
      let needle = Printf.sprintf "e%d " e.id in
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "event node present" true (contains dot needle))
    x.Exec.events;
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "thread clusters" true (contains dot "cluster_T1");
  Alcotest.(check bool) "rf edges" true (contains dot "label=\"rf\"")

(* ------------------------------------------------------------------ *)
(* Property: generated programs enumerate cleanly                      *)
(* ------------------------------------------------------------------ *)

let prop_enumeration_invariants =
  let gen =
    let open QCheck2.Gen in
    let loc = oneofl [ "x"; "y" ] in
    let instr tid k =
      oneof
        [
          map2 (fun l v -> Litmus.Build.write l v) loc (int_range 1 2);
          map (fun l -> Litmus.Build.read (Printf.sprintf "r%d%d" tid k) l) loc;
          return Litmus.Build.mb;
        ]
    in
    let thread tid =
      let* n = int_range 1 3 in
      let rec go k acc =
        if k = n then return (List.rev acc)
        else
          let* i = instr tid k in
          go (k + 1) (i :: acc)
      in
      go 0 []
    in
    let* t0 = thread 0 in
    let* t1 = thread 1 in
    return
      (Litmus.Build.make ~name:"gen" ~threads:[ t0; t1 ]
         ~exists:(Litmus.Build.m_eq "x" 0) ())
  in
  QCheck2.Test.make ~name:"enumerated executions are well-formed" ~count:60
    gen (fun t ->
      let xs = Exec.of_test t in
      xs <> []
      && List.for_all
           (fun x ->
             Rel.Iset.for_all
               (fun r ->
                 Rel.fold
                   (fun _ r' acc -> if r' = r then acc + 1 else acc)
                   x.Exec.rf 0
                 = 1)
               x.Exec.reads
             && Rel.is_acyclic (Rel.restrict x.Exec.writes x.Exec.co))
           xs)

let () =
  Alcotest.run "exec"
    [
      ( "events",
        [
          Alcotest.test_case "table-3 mapping" `Quick test_event_mapping;
          Alcotest.test_case "init writes" `Quick test_init_writes;
          Alcotest.test_case "po total" `Quick test_po_total_per_thread;
        ] );
      ( "dependencies",
        [
          Alcotest.test_case "data" `Quick test_data_dep;
          Alcotest.test_case "addr" `Quick test_addr_dep;
          Alcotest.test_case "ctrl" `Quick test_ctrl_dep;
          Alcotest.test_case "ctrl scope" `Quick test_ctrl_scope_ends_at_join;
          Alcotest.test_case "chain through assign" `Quick
            test_dep_chain_through_assign;
          Alcotest.test_case "rmw" `Quick test_rmw_edges;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "rf wellformed" `Quick test_rf_wellformed;
          Alcotest.test_case "co total per loc" `Quick
            test_co_total_per_location;
          Alcotest.test_case "init co-first" `Quick test_init_co_first;
          Alcotest.test_case "fr definition" `Quick test_fr_definition;
          Alcotest.test_case "int/ext partition" `Quick
            test_int_ext_partition;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "counts" `Quick test_enumeration_counts;
          Alcotest.test_case "conditionals" `Quick test_conditionals_prune;
          Alcotest.test_case "final memory" `Quick test_final_memory;
          Alcotest.test_case "computed values" `Quick
            test_computed_write_values;
          Alcotest.test_case "quantifiers" `Quick test_check_quantifiers;
          Alcotest.test_case "outcomes" `Quick test_outcomes_cover_condition;
        ] );
      ( "budget",
        [
          Alcotest.test_case "saturating arithmetic" `Quick
            test_budget_saturating;
          Alcotest.test_case "timeout" `Quick test_budget_timeout;
          Alcotest.test_case "candidate cap" `Quick test_budget_candidates;
          Alcotest.test_case "candidate cap reads the verdict stream" `Quick
            test_budget_claims_open;
          Alcotest.test_case "event cap" `Quick test_budget_events;
          Alcotest.test_case "enumeration raises" `Quick
            test_budget_enumeration_raises;
          Alcotest.test_case "happy path unchanged" `Quick
            test_budget_happy_path;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_export ]);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_enumeration_invariants ] );
    ]
