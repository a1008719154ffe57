(* The LK axioms (Figure 3 plus the RCU axiom of Figure 12) as CNF, for
   the symbolic backend: the Figure 8 chain of {!Relations.make},
   transcribed term by term into {!Exec.Solve.Sym} combinators over the
   symbolic witness relations.

   The static prefix is witness-independent, so it is taken — through
   {!Relations.static_cached} — from the representative execution the
   encoder provides, and enters the encoding as constant relations; only
   the dynamic remainder (rfi, rfe, overwrite, ppo, prop, hb, pb, the
   RCU path) becomes clauses.  Because the whole chain is monotone in rf
   and co and the axioms are negative, the support-only encoding is
   exact (see [lib/exec/solve.ml]); exactness against the scalar
   [Axioms.consistent] is what the corpus-agreement suite in
   [test/test_sat.ml] exercises.

   Each combinator computes its may- and must-projections with {!Rel}
   operations and leaves its literals to demand (see {!Exec.Solve.Sym}):
   the chain below builds projections, and only the entries an axiom
   reaches become variables and clauses.

   The recursive rcu-path is tied off concretely: its may- and
   must-projections are least fixpoints of the same six-rule step
   computed in {!Rel}, and a pair of may ∖ must, once the irreflexivity
   assertion or another pair's clauses ask for it, gets a variable with
   a support clause for every rule instance that derives it — the
   symbolic relation is then at least the concrete rcu-path of any
   assignment on every pair asked for, which is exactly what the
   irreflexivity assertion needs. *)

module S = Exec.Solve
module Sym = Exec.Solve.Sym

(* The six-rule step of Figure 12's [rec rcu-path], over concrete
   relations — used to compute the may/must fixpoints the symbolic
   tie-off is built on. *)
let rcu_step g r p =
  List.fold_left Rel.union g
    [
      Rel.seq p p;
      Rel.seq g r;
      Rel.seq r g;
      Rel.seq g (Rel.seq p r);
      Rel.seq r (Rel.seq p g);
    ]

let rcu_lfp g r =
  let rec go p =
    let next = rcu_step g r p in
    if Rel.equal next p then p else go next
  in
  go g

(* Symbolic rcu-path: [T] at must-fixpoint pairs, [F] outside the
   may-fixpoint, and at each remaining pair, once asked for, a fresh
   variable with one support clause per instance of the six rules that
   derives it from may-supported tuples. *)
let rcu_path ctx gp_link rscs_link =
  let may_g = Sym.may gp_link and may_r = Sym.may rscs_link in
  let may_p = rcu_lfp may_g may_r in
  let must_p = rcu_lfp (Sym.must gp_link) (Sym.must rscs_link) in
  (* columns, for the rule instances that end at a given pair *)
  let cols_g = Rel.inverse may_g
  and cols_r = Rel.inverse may_r
  and cols_p = Rel.inverse may_p in
  let g = Sym.entry gp_link and r = Sym.entry rscs_link in
  Sym.define ctx ~may:may_p ~must:must_p (fun path x z v ->
      let p = Sym.entry path in
      let support body = S.clause ctx (v :: List.map S.neg body) in
      (* gp-link <= p *)
      support [ g x z ];
      (* p ; p <= p  (a tautology through y = x or y = z) *)
      Rel.iter_row_inter
        (fun y -> if y <> x && y <> z then support [ p x y; p y z ])
        may_p x cols_p z;
      (* gp-link ; rscs-link <= p  and symmetrically *)
      Rel.iter_row_inter (fun y -> support [ g x y; r y z ]) may_g x cols_r z;
      Rel.iter_row_inter (fun y -> support [ r x y; g y z ]) may_r x cols_g z;
      (* gp-link ; p ; rscs-link <= p  and symmetrically *)
      Rel.iter_row
        (fun y ->
          Rel.iter_row_inter
            (fun y' -> support [ g x y; p y y'; r y' z ])
            may_p y cols_r z)
        may_g x;
      Rel.iter_row
        (fun y ->
          Rel.iter_row_inter
            (fun y' -> support [ r x y; p y y'; g y' z ])
            may_p y cols_g z)
        may_r x)

(* The axioms callback: Scpv is already asserted by the encoder (it
   doubles as the coherence prefilter), so this contributes At, Hb, Pb
   and Rcu. *)
let axioms (e : S.enc) =
  let ctx = e.S.ctx in
  let x = e.S.rep in
  let s = Relations.static_cached x in
  let rf = e.S.rf and co = e.S.co and fr = e.S.fr in
  let rfi = Sym.inter_const rf x.Exec.int_r in
  let rfe = Sym.inter_const rf x.Exec.ext_r in
  let fre = Sym.inter_const fr x.Exec.ext_r in
  let coe = Sym.inter_const co x.Exec.ext_r in
  (* At: empty (rmw & (fre ; coe)) *)
  Sym.assert_empty ctx (Sym.inter_const (Sym.seq ctx fre coe) x.Exec.rmw);
  (* Figure 8, the witness-dependent remainder *)
  let rfi_rel_acq =
    Sym.seq ctx (Sym.const ctx s.Relations.rel_id)
      (Sym.seq ctx rfi (Sym.const ctx s.Relations.acq_id))
  in
  let overwrite = Sym.union ctx co fr in
  let to_w =
    Sym.union ctx
      (Sym.const ctx s.Relations.s_rwdep)
      (Sym.inter_const overwrite x.Exec.int_r)
  in
  let rrdep =
    Sym.union ctx
      (Sym.const ctx x.Exec.addr)
      (Sym.seq ctx (Sym.const ctx s.Relations.s_dep) rfi)
  in
  let strong_rrdep =
    Sym.inter_const (Sym.plus ctx rrdep) s.Relations.s_rb_dep
  in
  let to_r = Sym.union ctx strong_rrdep rfi_rel_acq in
  let ppo =
    Sym.seq ctx (Sym.star ctx rrdep)
      (Sym.union ctx to_r
         (Sym.union ctx to_w (Sym.const ctx s.Relations.s_fence)))
  in
  let cumul_fence =
    Sym.union ctx
      (Sym.seq ctx (Sym.opt rfe)
         (Sym.const ctx
            (Rel.union s.Relations.s_strong_fence s.Relations.s_po_rel)))
      (Sym.const ctx s.Relations.s_wmb)
  in
  let prop =
    Sym.seq ctx
      (Sym.opt (Sym.inter_const overwrite x.Exec.ext_r))
      (Sym.seq ctx (Sym.star ctx cumul_fence) (Sym.opt rfe))
  in
  let hb =
    Sym.union ctx
      (Sym.inter_const (Sym.diff_const prop x.Exec.id_r) x.Exec.int_r)
      (Sym.union ctx ppo rfe)
  in
  (* Hb: acyclic hb *)
  Sym.assert_acyclic ctx hb;
  (* Pb and Rcu both vanish without a strong fence: pb has a
     strong-fence factor, and gp (hence gp-link, hence rcu-path) is a
     sub-relation of one. *)
  if not (Rel.is_empty s.Relations.s_strong_fence) then begin
    let hb_star = Sym.star ctx hb in
    let pb =
      Sym.seq ctx prop
        (Sym.seq ctx (Sym.const ctx s.Relations.s_strong_fence) hb_star)
    in
    (* Pb: acyclic pb *)
    Sym.assert_acyclic ctx pb;
    if not (Rel.is_empty s.Relations.s_gp) then begin
      let link = Sym.seq ctx hb_star (Sym.seq ctx (Sym.star ctx pb) prop) in
      let gp_link = Sym.seq ctx (Sym.const ctx s.Relations.s_gp) link in
      let rscs_link = Sym.seq ctx (Sym.const ctx s.Relations.s_rscs) link in
      (* Rcu: irreflexive rcu-path *)
      Sym.assert_irreflexive ctx (rcu_path ctx gp_link rscs_link)
    end
  end
