(* Tests for the diy-style generator: edge algebra, cycle enumeration,
   realisation of the classic shapes, and self-validation. *)

module E = Diygen.Edge
module C = Diygen.Cycle

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)
(* ------------------------------------------------------------------ *)

let test_edge_directions () =
  Alcotest.(check bool) "Rfe: W -> R" true
    (E.src_dir E.Rfe = Some E.W && E.tgt_dir E.Rfe = Some E.R);
  Alcotest.(check bool) "Fre: R -> W" true
    (E.src_dir E.Fre = Some E.R && E.tgt_dir E.Fre = Some E.W);
  Alcotest.(check bool) "Dp from a read" true
    (E.src_dir (E.Dp (E.Addr, E.R)) = Some E.R);
  Alcotest.(check bool) "Po_rel into a write" true
    (E.tgt_dir (E.Po_rel E.R) = Some E.W)

let test_edge_classification () =
  Alcotest.(check bool) "communications are external" true
    (List.for_all E.external_ [ E.Rfe; E.Fre; E.Coe ]);
  Alcotest.(check bool) "po edges are internal" true
    (not (E.external_ (E.Pod (E.R, E.W))));
  Alcotest.(check bool) "Pos stays on the location" false
    (E.diff_loc (E.Pos (E.W, E.R)));
  Alcotest.(check bool) "communications stay on the location" true
    (List.for_all (fun e -> not (E.diff_loc e)) [ E.Rfe; E.Fre; E.Coe ])

let test_edge_names_unique () =
  let names = List.map E.to_string E.vocabulary in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Cycles                                                              *)
(* ------------------------------------------------------------------ *)

let mp_cycle = [ E.Pod (E.W, E.W); E.Rfe; E.Pod (E.R, E.R); E.Fre ]
let sb_cycle = [ E.Pod (E.W, E.R); E.Fre; E.Pod (E.W, E.R); E.Fre ]

let test_sane () =
  Alcotest.(check bool) "MP is sane" true (C.sane mp_cycle);
  Alcotest.(check bool) "SB is sane" true (C.sane sb_cycle);
  (* Rfe ends in a read; another Rfe must start from a write *)
  Alcotest.(check bool) "mismatched junction rejected" false
    (C.sane [ E.Rfe; E.Rfe; E.Fre; E.Fre ]);
  Alcotest.(check bool) "Rfe then Coe rejected" false
    (C.sane [ E.Rfe; E.Coe; E.Fre; E.Pod (E.W, E.W) ]);
  Alcotest.(check bool) "one external edge rejected" false
    (C.sane [ E.Rfe; E.Pod (E.R, E.W); E.Pod (E.W, E.W) ]);
  Alcotest.(check bool) "single diff-loc edge rejected" false
    (C.sane [ E.Rfe; E.Pod (E.R, E.R); E.Fre ])

let test_canonical_rotation_invariant () =
  let rots = C.rotations mp_cycle in
  List.iter
    (fun r ->
      Alcotest.(check string) "same canonical form" (C.name (C.canonical mp_cycle))
        (C.name (C.canonical r)))
    rots

let test_enumerate_no_duplicates () =
  let cycles = C.enumerate ~vocabulary:[ E.Rfe; E.Fre; E.Coe; E.Pod (E.W, E.W); E.Pod (E.R, E.R); E.Pod (E.W, E.R) ] 4 in
  let names = List.map C.name cycles in
  Alcotest.(check int) "no duplicate canonical cycles" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "all sane" true (List.for_all C.sane cycles)

(* ------------------------------------------------------------------ *)
(* Realisation                                                         *)
(* ------------------------------------------------------------------ *)

let realize c =
  match Diygen.Realize.test_of_cycle c with
  | Some t -> t
  | None -> Alcotest.fail ("cannot realize " ^ C.name c)

let test_realize_mp () =
  let t = realize mp_cycle in
  Alcotest.(check int) "two threads" 2 (Array.length t.Litmus.Ast.threads);
  (* it really is MP: same verdicts as the named battery test *)
  Alcotest.(check bool) "MP is allowed" true
    ((Lkmm.check t).Exec.Check.verdict = Exec.Check.Allow)

let test_realize_fenced_variants () =
  let check cycle expected =
    let t = realize cycle in
    Alcotest.(check bool)
      (C.name cycle ^ " expected " ^ Exec.Check.verdict_to_string expected)
      true
      ((Lkmm.check t).Exec.Check.verdict = expected)
  in
  (* MP family *)
  check mp_cycle Exec.Check.Allow;
  check [ E.Fenced (E.Wmb, E.W, E.W); E.Rfe; E.Fenced (E.Rmb, E.R, E.R); E.Fre ]
    Exec.Check.Forbid;
  check [ E.Po_rel E.W; E.Rfe; E.Acq_po E.R; E.Fre ] Exec.Check.Forbid;
  (* SB family *)
  check sb_cycle Exec.Check.Allow;
  check [ E.Fenced (E.Mb, E.W, E.R); E.Fre; E.Fenced (E.Mb, E.W, E.R); E.Fre ]
    Exec.Check.Forbid;
  (* synchronize_rcu acts as a strong fence in generated tests too *)
  check [ E.Fenced (E.Sync, E.W, E.R); E.Fre; E.Fenced (E.Mb, E.W, E.R); E.Fre ]
    Exec.Check.Forbid;
  (* LB with data dependencies *)
  check [ E.Dp (E.Data, E.W); E.Rfe; E.Dp (E.Data, E.W); E.Rfe ]
    Exec.Check.Forbid;
  (* Alpha: plain address dependency in the read-read position *)
  check [ E.Dp (E.Addr, E.R); E.Fre; E.Fenced (E.Wmb, E.W, E.W); E.Rfe ]
    Exec.Check.Allow

let test_realized_condition_is_reachable () =
  (* self-validation contract: the condition identifies at least one
     candidate execution *)
  let rng = Random.State.make [| 42 |] in
  let tests = Diygen.sample ~vocabulary:E.vocabulary ~rng ~count:30 4 in
  Alcotest.(check bool) "sample nonempty" true (List.length tests > 10);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.Litmus.Ast.name ^ " condition reachable")
        true
        (List.exists Exec.satisfies_cond (Exec.of_test t)))
    tests

let test_realized_tests_parse_back () =
  let rng = Random.State.make [| 43 |] in
  let tests = Diygen.sample ~vocabulary:E.core_vocabulary ~rng ~count:20 5 in
  List.iter
    (fun t ->
      let t' = Litmus.parse (Litmus.to_string t) in
      Alcotest.(check bool)
        (t.Litmus.Ast.name ^ " prints and reparses")
        true
        (t.Litmus.Ast.threads = t'.Litmus.Ast.threads))
    tests

let test_dependency_edges_materialise () =
  (* an addr-dep cycle yields a test whose executions carry addr edges *)
  let t = realize [ E.Dp (E.Addr, E.W); E.Rfe; E.Dp (E.Addr, E.W); E.Rfe ] in
  let x = List.hd (Exec.of_test t) in
  Alcotest.(check bool) "addr edge present" false (Rel.is_empty x.Exec.addr)

let test_ctrl_edges_materialise () =
  let t = realize [ E.Dp (E.Ctrl, E.W); E.Rfe; E.Dp (E.Ctrl, E.W); E.Rfe ] in
  Alcotest.(check bool) "ctrl edge present" true
    (List.exists
       (fun x -> not (Rel.is_empty x.Exec.ctrl))
       (Exec.of_test t))

let test_generate_sizes () =
  let n3 = Diygen.generate ~vocabulary:E.core_vocabulary 3 in
  let n4 = Diygen.generate ~vocabulary:[ E.Rfe; E.Fre; E.Coe; E.Pod (E.W, E.W); E.Pod (E.R, E.R); E.Pod (E.W, E.R); E.Pod (E.R, E.W) ] 4 in
  Alcotest.(check bool) "size 3 small but nonempty" true (List.length n3 >= 1);
  Alcotest.(check bool) "size 4 has the classics" true (List.length n4 >= 10)

(* ------------------------------------------------------------------ *)
(* Realisability per event structure                                   *)
(* ------------------------------------------------------------------ *)

(* The reference for [Realize.realisable]: the validation diygen ran
   before it, which builds every candidate execution. *)
let candidate_exists t = List.exists Exec.satisfies_cond (Exec.of_test t)

(* [t] once per atom of its condition, with that atom's value replaced
   by the least value no thread's write stores in any of [t]'s
   structures.  That value is usually the initial one: a memory atom
   then asks for a written location to end with its initial value,
   which no coherence order gives, and a register atom for a read of
   the initial value.  So false cases occur. *)
let unwritten_variants (t : Litmus.Ast.t) =
  let written =
    Seq.fold_left
      (fun acc (sk : Exec.skeleton) ->
        Array.fold_left
          (fun acc (e : Exec.Event.t) ->
            if Exec.Event.is_write e && not (Exec.Event.is_init e) then
              e.Exec.Event.v :: acc
            else acc)
          acc sk.Exec.sk_events)
      [] (Exec.skeletons t)
  in
  let rec least v = if List.mem v written then least (v + 1) else v in
  let unwritten = Litmus.Ast.VInt (least 0) in
  (* the condition with its [i]th atom replaced, and its atom count *)
  let rec go i (c : Litmus.Ast.cond) : Litmus.Ast.cond * int =
    match c with
    | Atom (Reg_eq (tid, r, _)) when i = 0 -> (Atom (Reg_eq (tid, r, unwritten)), 1)
    | Atom (Mem_eq (x, _)) when i = 0 -> (Atom (Mem_eq (x, unwritten)), 1)
    | Atom _ -> (c, 1)
    | Ctrue -> (c, 0)
    | Not c ->
        let c, n = go i c in
        (Not c, n)
    | And (a, b) ->
        let a, n = go i a in
        let b, m = go (i - n) b in
        (And (a, b), n + m)
    | Or (a, b) ->
        let a, n = go i a in
        let b, m = go (i - n) b in
        (Or (a, b), n + m)
  in
  List.init (snd (go (-1) t.cond)) (fun i -> { t with cond = fst (go i t.cond) })

(* The conditions checked per test: its own, each unwritten variant's,
   the disjunction of those variants, and the negation of each, as a
   forall body. *)
let condition_variants (t : Litmus.Ast.t) =
  let unwritten = unwritten_variants t in
  let disjunction =
    match unwritten with
    | [] -> []
    | u :: us ->
        [ { t with cond = List.fold_left (fun c (u : Litmus.Ast.t) -> Litmus.Ast.Or (c, u.cond)) u.cond us } ]
  in
  List.concat_map
    (fun (v : Litmus.Ast.t) ->
      [ v; { v with quant = Q_forall; cond = Not v.cond } ])
    ((t :: unwritten) @ disjunction)

(* Every test under each of its condition variants: the per-structure
   check must equal candidate existence.  Returns how many checks were
   false. *)
let check_realisable label tests =
  List.fold_left
    (fun n_false (t : Litmus.Ast.t) ->
      List.fold_left
        (fun n_false (t : Litmus.Ast.t) ->
          let expected = candidate_exists t in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %s" label t.name
               (Fmt.str "%a" Litmus.Pp.pp_cond t.cond))
            expected
            (Diygen.Realize.realisable t);
          if expected then n_false else n_false + 1)
        n_false (condition_variants t))
    0 tests

(* Every cycle that reaches validation, at sizes 3-7 over the full
   vocabulary, from a fixed seed range. *)
let test_realisable_cycles () =
  let drafts =
    List.concat_map
      (fun size ->
        List.filter_map
          (fun seed ->
            let rng = Random.State.make [| size; seed |] in
            match Diygen.random_cycle ~vocabulary:E.vocabulary ~rng size with
            | Some c when C.sane c -> Diygen.Realize.draft (C.canonical c)
            | _ -> None)
          (List.init 3000 Fun.id))
      [ 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "many drafts" true (List.length drafts > 300);
  let n_false = check_realisable "cycle" drafts in
  Alcotest.(check bool) "some are not realisable" true (n_false > 0)

(* Every corpus and battery test. *)
let test_realisable_corpus () =
  let corpus =
    match
      List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ]
    with
    | None -> Alcotest.fail "corpus directory not found"
    | Some dir ->
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".litmus")
        |> List.map (fun f ->
               Litmus.parse
                 (Harness.Runner.read_file (Filename.concat dir f)))
  in
  Alcotest.(check bool) "corpus is substantial" true
    (List.length corpus > 200);
  let battery = List.map Harness.Battery.test_of Harness.Battery.all in
  let n_false = check_realisable "test" (corpus @ battery) in
  Alcotest.(check bool) "some are not realisable" true (n_false > 0)

(* ------------------------------------------------------------------ *)
(* Deterministic seed-range generation (campaign shards)               *)
(* ------------------------------------------------------------------ *)

(* Campaign shards regenerate their tests from (config, seed) alone:
   the same range must yield the byte-identical tests, every time. *)
let test_seed_range_deterministic () =
  let gen () =
    List.map
      (fun (seed, (t : Litmus.Ast.t)) -> (seed, t.name, Litmus.to_string t))
      (Diygen.generate_range ~vocabulary:E.core_vocabulary ~size:4 0 400)
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "some seeds realise" true (List.length a > 3);
  Alcotest.(check bool) "byte-identical across calls" true (a = b);
  (* a sub-range is a sub-list: seeds are independent, not a stream *)
  let sub =
    List.map
      (fun (seed, (t : Litmus.Ast.t)) -> (seed, t.name, Litmus.to_string t))
      (Diygen.generate_range ~vocabulary:E.core_vocabulary ~size:4 100 300)
  in
  Alcotest.(check bool) "range-independent" true
    (List.for_all (fun x -> List.mem x a) sub
     && List.for_all
          (fun ((s, _, _) as x) ->
            if s >= 100 && s < 300 then List.mem x sub else true)
          a)

let test_seed_denotes_canonical_test () =
  (* the walk is canonicalised before realisation, so a seed's test is
     stable under the name <-> cycle bijection the corpus relies on *)
  List.iter
    (fun seed ->
      match Diygen.test_of_seed ~vocabulary:E.core_vocabulary ~size:4 seed with
      | None -> ()
      | Some t -> (
          match
            Diygen.test_of_seed ~vocabulary:E.core_vocabulary ~size:4 seed
          with
          | Some t' ->
              Alcotest.(check string) "stable name" t.Litmus.Ast.name
                t'.Litmus.Ast.name;
              Alcotest.(check string) "stable source" (Litmus.to_string t)
                (Litmus.to_string t')
          | None -> Alcotest.fail "seed flickered"))
    [ 0; 1; 7; 79; 123; 1024 ]

let () =
  Alcotest.run "diygen"
    [
      ( "edges",
        [
          Alcotest.test_case "directions" `Quick test_edge_directions;
          Alcotest.test_case "classification" `Quick test_edge_classification;
          Alcotest.test_case "unique names" `Quick test_edge_names_unique;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "sanity" `Quick test_sane;
          Alcotest.test_case "canonical rotations" `Quick
            test_canonical_rotation_invariant;
          Alcotest.test_case "no duplicates" `Quick
            test_enumerate_no_duplicates;
        ] );
      ( "realisation",
        [
          Alcotest.test_case "MP" `Quick test_realize_mp;
          Alcotest.test_case "fenced variants" `Quick
            test_realize_fenced_variants;
          Alcotest.test_case "conditions reachable" `Slow
            test_realized_condition_is_reachable;
          Alcotest.test_case "parse back" `Quick test_realized_tests_parse_back;
          Alcotest.test_case "addr edges" `Quick
            test_dependency_edges_materialise;
          Alcotest.test_case "ctrl edges" `Quick test_ctrl_edges_materialise;
          Alcotest.test_case "sizes" `Quick test_generate_sizes;
        ] );
      ( "seed ranges",
        [
          Alcotest.test_case "deterministic" `Quick
            test_seed_range_deterministic;
          Alcotest.test_case "canonical per seed" `Quick
            test_seed_denotes_canonical_test;
        ] );
      ( "realisability",
        [
          Alcotest.test_case "cycles" `Slow test_realisable_cycles;
          Alcotest.test_case "corpus and battery" `Slow
            test_realisable_corpus;
        ] );
    ]
