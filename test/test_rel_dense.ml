(* Differential tests: the dense bitset kernel ({!Rel}) against the
   retained pair-set specification ({!Rel.Reference}), operator by
   operator, on randomized relations — plus end-to-end agreement checks
   on a corpus sample (verdicts with the coherence prefilter and the
   static-prefix cache on and off), and the soundness argument for the
   prefilter made executable: candidates it rejects never satisfy the
   model.

   The candidate-major bit-plane kernel ({!Rel.Batch}) gets the same
   treatment: every batched operator and decision mask against a scalar
   loop over the planes, randomized over universe size, plane count and
   mask — plus corpus-wide agreement of {!Exec.Check.run} results with
   batching on/off × prefilter on/off, for the native LKMM and the cat
   interpreter (witness identity included, not just verdicts).

   Trial tally: the operator suite alone draws 2 relations per trial ×
   4000 trials, the closure/sort/cycle suites another 2000 + 2000 +
   500, and the batch suite 2 × 1500 trials of up to 63 planes each
   (~40k plane comparisons) — comfortably over the 10k randomized
   relations the acceptance criteria ask for. *)

module D = Rel
module S = Rel.Reference
module Iset = Rel.Iset

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* (universe size, pairs1, pairs2): ids in [0, n).  Sizes cross word
   boundaries of the 63-bit rows at n = 64+. *)
let gen_input =
  let open QCheck2.Gen in
  let* n = oneofl [ 3; 6; 13; 24; 64; 70 ] in
  let pair = tup2 (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
  let pairs = list_size (int_range 0 (2 * n)) pair in
  tup3 (return n) pairs pairs

let agree d s = D.to_list d = S.to_list s

(* ------------------------------------------------------------------ *)
(* Operator-by-operator agreement                                      *)
(* ------------------------------------------------------------------ *)

let prop_ops_agree =
  QCheck2.Test.make ~name:"every operator agrees with the reference"
    ~count:4000 gen_input (fun (n, ps1, ps2) ->
      let d1 = D.of_list ps1 and d2 = D.of_list ps2 in
      let s1 = S.of_list ps1 and s2 = S.of_list ps2 in
      let u = Iset.of_range 0 (n - 1) in
      let half = Iset.of_range 0 (n / 2) in
      let p a b = (a + b) mod 2 = 0 in
      agree d1 s1 && agree d2 s2
      && D.cardinal d1 = S.cardinal s1
      && D.is_empty d1 = S.is_empty s1
      && D.equal d1 d2 = S.equal s1 s2
      && D.subset d1 d2 = S.subset s1 s2
      && D.mem 0 (n - 1) d1 = S.mem 0 (n - 1) s1
      && agree (D.add (n - 1) 0 d1) (S.add (n - 1) 0 s1)
      && agree (D.union d1 d2) (S.union s1 s2)
      && agree (D.inter d1 d2) (S.inter s1 s2)
      && agree (D.diff d1 d2) (S.diff s1 s2)
      && agree (D.seq d1 d2) (S.seq s1 s2)
      && agree (D.seqs [ d1; d2; d1 ]) (S.seqs [ s1; s2; s1 ])
      && agree (D.inverse d1) (S.inverse s1)
      && agree (D.filter p d1) (S.filter p s1)
      && D.exists p d1 = S.exists p s1
      && D.for_all p d1 = S.for_all p s1
      && Iset.equal (D.domain d1) (S.domain s1)
      && Iset.equal (D.range d1) (S.range s1)
      && Iset.equal (D.field d1) (S.field s1)
      && agree (D.id_of_set half) (S.id_of_set half)
      && agree
           (D.id_of_list [ n - 1; 0; n - 1 ])
           (S.id_of_list [ n - 1; 0; n - 1 ])
      && agree (D.init n (fun a b -> S.mem a b s1 && p a b)) (S.filter p s1)
      && agree (D.cartesian half u) (S.cartesian half u)
      && agree (D.restrict_domain half d1) (S.restrict_domain half s1)
      && agree (D.restrict_range half d1) (S.restrict_range half s1)
      && agree (D.restrict half d1) (S.restrict half s1)
      && agree (D.complement ~universe:u d1) (S.complement ~universe:u s1)
      && D.fold (fun a b acc -> (a, b) :: acc) d1 []
         = S.fold (fun a b acc -> (a, b) :: acc) s1 [])

let prop_closures_agree =
  QCheck2.Test.make ~name:"closures agree with the reference" ~count:2000
    gen_input (fun (n, ps1, _) ->
      let d = D.of_list ps1 and s = S.of_list ps1 in
      let u = Iset.of_range 0 (n - 1) in
      agree (D.transitive_closure d) (S.transitive_closure s)
      && agree (D.reflexive_closure ~universe:u d)
           (S.reflexive_closure ~universe:u s)
      && agree
           (D.reflexive_transitive_closure ~universe:u d)
           (S.reflexive_transitive_closure ~universe:u s))

let prop_cyclicity_agrees =
  QCheck2.Test.make ~name:"acyclicity, cycles and sorts agree" ~count:2000
    gen_input (fun (n, ps1, _) ->
      let d = D.of_list ps1 and s = S.of_list ps1 in
      let u = Iset.of_range 0 (n - 1) in
      D.is_acyclic d = S.is_acyclic s
      && D.is_irreflexive d = S.is_irreflexive s
      (* both return a *shortest* cycle; the witness may differ, its
         length may not *)
      && Option.map List.length (D.find_cycle d)
         = Option.map List.length (S.find_cycle s)
      && D.topological_sort ~universe:u d = S.topological_sort ~universe:u s)

let prop_linear_extensions_agree =
  QCheck2.Test.make ~name:"linear extensions agree (incl. duplicates)"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 4) (int_range 0 3))
    (fun elems ->
      let sort = List.sort compare in
      sort (List.map D.to_list (D.linear_extensions elems))
      = sort (List.map S.to_list (S.linear_extensions elems)))

(* ------------------------------------------------------------------ *)
(* The bit-plane batch kernel against a scalar loop                    *)
(* ------------------------------------------------------------------ *)

module B = Rel.Batch

(* (universe size, plane count, mask, per-plane pairs ×2): universes at
   litmus scale (the kernel packs candidates, not big universes), plane
   counts up to the full word including the k = 63 [full_mask] edge
   case, and a random submask so masked variants are exercised with
   decided planes present. *)
let gen_batch_input =
  let open QCheck2.Gen in
  let* n = oneofl [ 2; 5; 9; 14 ] in
  let* k = oneofl [ 1; 2; 3; 7; 20; 62; 63 ] in
  let* mask_bits = int_bound ((1 lsl min k 30) - 1) in
  let mask = B.full_mask k land lnot mask_bits in
  let pair = tup2 (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
  let pairs = list_size (int_range 0 (2 * n)) pair in
  let plane_list = list_repeat k pairs in
  tup5 (return n) (return k) (return mask) plane_list plane_list

(* Expected mask of a per-plane predicate, by scalar loop. *)
let mask_of k pred rels =
  let m = ref 0 in
  for c = 0 to k - 1 do
    if pred rels.(c) then m := !m lor (1 lsl c)
  done;
  !m

let prop_batch_ops_agree =
  QCheck2.Test.make ~name:"batched operators agree with a scalar loop"
    ~count:1500 gen_batch_input (fun (n, k, _mask, pls1, pls2) ->
      let rels1 = Array.of_list (List.map D.of_list pls1) in
      let rels2 = Array.of_list (List.map D.of_list pls2) in
      let b1 = B.of_rels ~n rels1 and b2 = B.of_rels ~n rels2 in
      let u = Iset.of_range 0 (n - 1) in
      let full = B.full_mask k in
      (* a batched op agrees iff every plane extracts to the scalar
         op's result on that plane's inputs *)
      let planes_agree b f =
        let ok = ref true in
        for c = 0 to k - 1 do
          ok := !ok && D.equal (B.plane b c) (f rels1.(c) rels2.(c))
        done;
        !ok
      in
      planes_agree b1 (fun r _ -> r)
      && planes_agree (B.union b1 b2) D.union
      && planes_agree (B.inter b1 b2) D.inter
      && planes_agree (B.diff b1 b2) D.diff
      && planes_agree (B.seq b1 b2) D.seq
      && planes_agree (B.inverse b1) (fun r _ -> D.inverse r)
      && planes_agree (B.transitive_closure b1) (fun r _ ->
             D.transitive_closure r)
      && planes_agree
           (B.reflexive_closure ~mask:full b1)
           (fun r _ -> D.reflexive_closure ~universe:u r)
      && planes_agree
           (B.reflexive_transitive_closure ~mask:full b1)
           (fun r _ -> D.reflexive_transitive_closure ~universe:u r)
      && planes_agree (B.complement ~mask:full b1) (fun r _ ->
             D.complement ~universe:u r)
      && B.equal b1 b2 = Array.for_all2 D.equal rels1 rels2)

let prop_batch_masks_agree =
  QCheck2.Test.make ~name:"batched decision masks agree with a scalar loop"
    ~count:1500 gen_batch_input (fun (n, k, mask, pls1, _pls2) ->
      let rels1 = Array.of_list (List.map D.of_list pls1) in
      let b1 = B.of_rels ~n rels1 in
      let bm = B.of_rels ~n ~mask rels1 in
      let is_cyclic r = not (D.is_acyclic r) in
      let is_reflexive r = not (D.is_irreflexive r) in
      (* unmasked decision masks *)
      B.nonempty_mask b1 = mask_of k (fun r -> not (D.is_empty r)) rels1
      && B.reflexive_mask b1 = mask_of k is_reflexive rels1
      && B.cyclic_mask b1 = mask_of k is_cyclic rels1
      (* masked variants answer within the mask only *)
      && B.acyclic_mask ~mask b1 = mask land mask_of k D.is_acyclic rels1
      && B.irreflexive_mask ~mask b1
         = mask land mask_of k D.is_irreflexive rels1
      && B.empty_mask ~mask b1 = mask land mask_of k D.is_empty rels1
      (* of_rels ~mask keeps only the masked planes *)
      && (let ok = ref true in
          for c = 0 to k - 1 do
            let expect =
              if mask land (1 lsl c) <> 0 then rels1.(c) else D.empty
            in
            ok := !ok && D.equal (B.plane bm c) expect
          done;
          !ok)
      (* restrict zeroes planes outside the mask *)
      && (let r = B.restrict ~mask b1 in
          let ok = ref true in
          for c = 0 to k - 1 do
            let expect =
              if mask land (1 lsl c) <> 0 then rels1.(c) else D.empty
            in
            ok := !ok && D.equal (B.plane r c) expect
          done;
          !ok)
      (* broadcast holds the relation in masked planes only *)
      && (let r0 = if Array.length rels1 > 0 then rels1.(0) else D.empty in
          let b = B.broadcast ~n ~mask r0 in
          let ok = ref true in
          for c = 0 to k - 1 do
            let expect = if mask land (1 lsl c) <> 0 then r0 else D.empty in
            ok := !ok && D.equal (B.plane b c) expect
          done;
          !ok)
      (* mem answers per plane *)
      && B.mem 0 (n - 1) b1 = mask_of k (D.mem 0 (n - 1)) rels1)

(* ------------------------------------------------------------------ *)
(* Corpus sample: end-to-end agreement and prefilter soundness         *)
(* ------------------------------------------------------------------ *)

let corpus_dir =
  (* tests run from _build/default/test *)
  List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ]

(* Every [stride]-th manifest entry — a fixed, spread-out sample. *)
let sample_tests stride =
  match corpus_dir with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      Harness.Runner.read_file (Filename.concat dir "MANIFEST")
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.filteri (fun i _ -> i mod stride = 0)
      |> List.map (fun line ->
             let file = List.hd (String.split_on_char ' ' line) in
             ( file,
               Litmus.parse (Harness.Runner.read_file (Filename.concat dir file))
             ))

let result_key (r : Exec.Check.result) =
  (r.verdict, r.n_candidates, r.n_consistent, r.n_matching, r.outcomes)

(* The prefilter and both caches must be invisible in the results (only
   n_prefiltered differs by construction, so compare everything else). *)
let test_corpus_agreement () =
  let lk_cat = Lazy.force Cat.lk in
  List.iter
    (fun (file, test) ->
      let native_on = Exec.Check.run (module Lkmm) test in
      let native_off = Exec.Check.run ~prefilter:false (module Lkmm) test in
      Alcotest.(check bool)
        (file ^ ": native verdicts agree with prefilter off")
        true
        (result_key native_on = result_key native_off
        && native_off.n_prefiltered = 0);
      let cat_cached =
        Exec.Check.run (Cat.to_check_model ~name:"LK(cat)" lk_cat) test
      in
      let cat_plain =
        Exec.Check.run
          (Cat.to_check_model ~name:"LK(cat)" ~cache:false lk_cat)
          test
      in
      Alcotest.(check bool)
        (file ^ ": cat verdicts agree with static-prefix cache off")
        true
        (result_key cat_cached = result_key cat_plain);
      Alcotest.(check bool)
        (file ^ ": native and cat verdicts agree")
        true
        (native_on.verdict = cat_cached.verdict))
    (sample_tests 11)

(* Batched evaluation (bit planes + delta re-checking) must be invisible
   in the results, down to witness identity — the correctness contract of
   the batched path.  Exercised batch on/off × prefilter on/off, for the
   native axioms and the cat interpreter. *)
let witness_rels (x : Exec.t option) =
  Option.map (fun (x : Exec.t) -> (Rel.to_list x.rf, Rel.to_list x.co)) x

let full_key (r : Exec.Check.result) =
  (result_key r, r.n_prefiltered, witness_rels r.witness)

let test_batched_agreement () =
  let lk_cat = Lazy.force Cat.lk in
  let cat_scalar_m = Cat.to_check_model ~name:"LK(cat)" lk_cat in
  let cat_batched_m, cat_batch = Cat.to_batched_model ~name:"LK(cat)" lk_cat in
  List.iter
    (fun (file, test) ->
      let pair what scalar batched =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s agrees batched vs scalar" file what)
          true
          (full_key scalar = full_key batched)
      in
      (* the scalar reference path is what --no-batch selects: batching
         off AND delta re-evaluation off *)
      let native_scalar = Exec.Check.run ~delta:false (module Lkmm) test in
      pair "native"
        native_scalar
        (Exec.Check.run ~batch:Lkmm.consistent_mask (module Lkmm) test);
      pair "native (delta only)" native_scalar
        (Exec.Check.run (module Lkmm) test);
      pair "native, prefilter off"
        (Exec.Check.run ~prefilter:false ~delta:false (module Lkmm) test)
        (Exec.Check.run ~prefilter:false ~batch:Lkmm.consistent_mask
           (module Lkmm) test);
      pair "cat"
        (Exec.Check.run ~delta:false cat_scalar_m test)
        (Exec.Check.run ~batch:cat_batch cat_batched_m test);
      pair "cat, prefilter off"
        (Exec.Check.run ~prefilter:false ~delta:false cat_scalar_m test)
        (Exec.Check.run ~prefilter:false ~batch:cat_batch cat_batched_m test))
    (sample_tests 11)

(* Run the model anyway on every candidate the prefilter rejects: none
   may be consistent, under the native axioms or the cat interpreter —
   the executable form of the soundness argument (an sc-per-location
   cycle violates a constraint of every shipped model). *)
let test_prefilter_soundness () =
  let lk_cat = Lazy.force Cat.lk in
  let rejected = ref 0 in
  List.iter
    (fun (file, test) ->
      Seq.iter
        (fun x ->
          if not (Exec.coherent x) then begin
            incr rejected;
            Alcotest.(check bool)
              (file ^ ": prefilter-rejected candidate fails the LK axioms")
              false (Lkmm.consistent x);
            Alcotest.(check bool)
              (file ^ ": prefilter-rejected candidate fails the cat model")
              false
              (Cat.consistent lk_cat x)
          end)
        (Exec.of_test_seq test))
    (sample_tests 9);
  Alcotest.(check bool) "sample exercises the prefilter" true (!rejected > 20)

let () =
  Alcotest.run "rel_dense"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ops_agree;
            prop_closures_agree;
            prop_cyclicity_agrees;
            prop_linear_extensions_agree;
            prop_batch_ops_agree;
            prop_batch_masks_agree;
          ] );
      ( "end-to-end",
        [
          Alcotest.test_case "corpus sample agreement" `Quick
            test_corpus_agreement;
          Alcotest.test_case "batched vs scalar agreement" `Quick
            test_batched_agreement;
          Alcotest.test_case "prefilter soundness" `Quick
            test_prefilter_soundness;
        ] );
    ]
