(* The relations of the LK memory model, exactly as defined in Figure 8 and
   Figure 12 of the paper.

   The definitions split into a *static* prefix — relations determined by
   the event structure alone (po, dependencies, fences, RCU critical
   sections), identical for every rf/co witness of one structure — and a
   *dynamic* remainder built on rf, co and their derivatives.  [static_of]
   computes the prefix, and [static_cached] keys a one-slot cache on the
   physical identity of [x.shape], which the enumeration shares across
   all witnesses of every event structure of one static shape.

   The dynamic remainder, the chain from rfi-rel-acq through hb, pb, link
   and rcu-path plus At's [rmw & (fre ; coe)], is written once below,
   over a record of the operations it uses ({!ops}), and instantiated by
   each engine: [make] over {!Rel} (one candidate, every relation kept in
   a [ctx] record) and [sat_axioms] over {!Exec.Solve.Sym} (the CNF of a
   whole event structure). *)

module Iset = Rel.Iset

let c_fixpoint = Obs.Counter.make "lkmm.fixpoint_iters"
let c_cache_hits = Obs.Counter.make "lkmm.cache.hits"
let c_cache_misses = Obs.Counter.make "lkmm.cache.misses"

type static_ctx = {
  acq_id : Rel.t; (* identity over read-acquires *)
  rel_id : Rel.t; (* identity over write-releases *)
  s_acq_po : Rel.t;
  s_po_rel : Rel.t;
  s_rmb : Rel.t;
  s_wmb : Rel.t;
  s_mb : Rel.t;
  s_rb_dep : Rel.t;
  s_sync : Iset.t;
  s_gp : Rel.t;
  s_rscs : Rel.t;
  s_dep : Rel.t;
  s_rwdep : Rel.t;
  s_strong_fence : Rel.t;
  s_fence : Rel.t;
}

type ctx = {
  x : Exec.t;
  (* auxiliary relations (Section 3.1) *)
  acq_po : Rel.t; (* first event is an acquire *)
  po_rel : Rel.t; (* second event is a release *)
  rfi_rel_acq : Rel.t; (* internal reads-from, release into acquire *)
  rmb : Rel.t; (* reads separated by smp_rmb *)
  wmb : Rel.t; (* writes separated by smp_wmb *)
  mb : Rel.t; (* events separated by smp_mb *)
  rb_dep : Rel.t; (* reads separated by smp_read_barrier_depends *)
  (* RCU base relations (Figure 12) *)
  sync : Iset.t; (* F[sync-rcu] events *)
  crit : Rel.t; (* outermost rcu_read_lock -> matching unlock *)
  gp : Rel.t;
  rscs : Rel.t;
  (* Figure 3 *)
  at : Rel.t; (* rmw & (fre ; coe) *)
  (* Figure 8 *)
  dep : Rel.t;
  rwdep : Rel.t;
  overwrite : Rel.t;
  to_w : Rel.t;
  rrdep : Rel.t;
  strong_rrdep : Rel.t;
  to_r : Rel.t;
  strong_fence : Rel.t; (* mb U gp, per Figure 12 *)
  fence : Rel.t;
  ppo : Rel.t;
  cumul_fence : Rel.t;
  prop : Rel.t;
  hb : Rel.t;
  pb : Rel.t;
  (* Figure 12 *)
  link : Rel.t;
  gp_link : Rel.t;
  rscs_link : Rel.t;
  rcu_path : Rel.t;
}

(* The witness-independent relations: po, the dependency and fence
   relations, gp, rscs.  None of these mentions rf, co or a derivative. *)
let static_of (x : Exec.t) =
  let ( |>> ) = Rel.seq in
  let universe = x.universe in
  let opt r = Rel.reflexive_closure ~universe r in
  let set p = Exec.events_where x p in
  let is a (e : Exec.Event.t) = e.annot = a in
  let acq = set (fun e -> Exec.Event.is_read e && is Exec.Event.Acquire e) in
  let rel = set (fun e -> Exec.Event.is_write e && is Exec.Event.Release e) in
  let f_rmb = set (is Exec.Event.Rmb) in
  let f_wmb = set (is Exec.Event.Wmb) in
  let f_mb = set (is Exec.Event.Mb) in
  let f_rb_dep = set (is Exec.Event.Rb_dep) in
  let sync = set (is Exec.Event.Sync_rcu) in
  let r_id = Rel.id_of_set x.reads in
  let w_id = Rel.id_of_set x.writes in
  let acq_id = Rel.id_of_set acq in
  let rel_id = Rel.id_of_set rel in
  let acq_po = acq_id |>> x.po in
  let po_rel = x.po |>> rel_id in
  let rmb = r_id |>> x.po |>> Rel.id_of_set f_rmb |>> x.po |>> r_id in
  let wmb = w_id |>> x.po |>> Rel.id_of_set f_wmb |>> x.po |>> w_id in
  let mb = x.po |>> Rel.id_of_set f_mb |>> x.po in
  let rb_dep = r_id |>> x.po |>> Rel.id_of_set f_rb_dep |>> x.po |>> r_id in
  (* gp := (po & (_ * Sync)) ; po?   (Figure 12) *)
  let gp = Rel.inter x.po (Rel.cartesian universe sync) |>> opt x.po in
  (* rscs := po ; crit^-1 ; po? *)
  let rscs = x.po |>> Rel.inverse x.crit |>> opt x.po in
  let dep = Rel.union x.addr x.data in
  let rwdep =
    Rel.inter (Rel.union dep x.ctrl) (Rel.cartesian x.reads x.writes)
  in
  let strong_fence = Rel.union mb gp in
  let fence =
    List.fold_left Rel.union strong_fence [ po_rel; wmb; rmb; acq_po ]
  in
  {
    acq_id;
    rel_id;
    s_acq_po = acq_po;
    s_po_rel = po_rel;
    s_rmb = rmb;
    s_wmb = wmb;
    s_mb = mb;
    s_rb_dep = rb_dep;
    s_sync = sync;
    s_gp = gp;
    s_rscs = rscs;
    s_dep = dep;
    s_rwdep = rwdep;
    s_strong_fence = strong_fence;
    s_fence = fence;
  }

(* ------------------------------------------------------------------ *)
(* The chain, once                                                     *)
(* ------------------------------------------------------------------ *)

(* The operations the dynamic remainder is written in, over one engine's
   representation ['r] of a relation: a static relation as a constant,
   union, sequence, intersection and difference with a static relation,
   and the three closures. *)
type 'r ops = {
  const : Rel.t -> 'r;
  union : 'r -> 'r -> 'r;
  seq : 'r -> 'r -> 'r;
  inter : 'r -> Rel.t -> 'r;
  diff : 'r -> Rel.t -> 'r;
  plus : 'r -> 'r;
  star : 'r -> 'r;
  opt : 'r -> 'r;
}

(* The Figure 8 relations the chain derives up to hb. *)
type 'r fig8 = {
  rfi_rel_acq : 'r;
  overwrite : 'r;
  to_w : 'r;
  rrdep : 'r;
  strong_rrdep : 'r;
  to_r : 'r;
  ppo : 'r;
  cumul_fence : 'r;
  prop : 'r;
  hb : 'r;
}

(* At: empty (rmw & (fre ; coe)) *)
let at o (x : Exec.t) ~fre ~coe = o.inter (o.seq fre coe) x.rmw

(* Figure 8, the witness-dependent remainder, from rfi, rfe, co and fr.
   Sequences nest to the right; the symbolic encoding follows the
   nesting, the other engines' results do not depend on it. *)
let fig8 o s (x : Exec.t) ~rfi ~rfe ~co ~fr =
  let rfi_rel_acq = o.seq (o.const s.rel_id) (o.seq rfi (o.const s.acq_id)) in
  let overwrite = o.union co fr in
  let to_w = o.union (o.const s.s_rwdep) (o.inter overwrite x.int_r) in
  let rrdep = o.union (o.const x.addr) (o.seq (o.const s.s_dep) rfi) in
  let strong_rrdep = o.inter (o.plus rrdep) s.s_rb_dep in
  let to_r = o.union strong_rrdep rfi_rel_acq in
  let ppo =
    o.seq (o.star rrdep) (o.union to_r (o.union to_w (o.const s.s_fence)))
  in
  (* A-cumul(r) := rfe? ; r *)
  let cumul_fence =
    o.union
      (o.seq (o.opt rfe) (o.const (Rel.union s.s_strong_fence s.s_po_rel)))
      (o.const s.s_wmb)
  in
  let prop =
    o.seq
      (o.opt (o.inter overwrite x.ext_r))
      (o.seq (o.star cumul_fence) (o.opt rfe))
  in
  let hb = o.union (o.inter (o.diff prop x.id_r) x.int_r) (o.union ppo rfe) in
  {
    rfi_rel_acq;
    overwrite;
    to_w;
    rrdep;
    strong_rrdep;
    to_r;
    ppo;
    cumul_fence;
    prop;
    hb;
  }

(* pb := prop ; strong-fence ; hb^* *)
let pb o s ~prop ~hb_star =
  o.seq prop (o.seq (o.const s.s_strong_fence) hb_star)

(* link := hb^* ; pb^* ; prop, and gp-link, rscs-link *)
let links o s ~hb_star ~pb ~prop =
  let link = o.seq hb_star (o.seq (o.star pb) prop) in
  (link, o.seq (o.const s.s_gp) link, o.seq (o.const s.s_rscs) link)

(* rec rcu-path := gp-link | rcu-path ; rcu-path | gp-link ; rscs-link
   | rscs-link ; gp-link | gp-link ; rcu-path ; rscs-link
   | rscs-link ; rcu-path ; gp-link, by Kleene iteration of its monotone
   defining equation from gp-link *)
let rcu_path o ~equal ~gp_link:g ~rscs_link:r =
  let rec go p =
    Obs.Counter.incr c_fixpoint;
    let next =
      List.fold_left o.union g
        [
          o.seq p p;
          o.seq g r;
          o.seq r g;
          o.seq g (o.seq p r);
          o.seq r (o.seq p g);
        ]
    in
    if equal next p then p else go next
  in
  go g

(* ------------------------------------------------------------------ *)
(* Scalar: every relation of one candidate                             *)
(* ------------------------------------------------------------------ *)

let rel_ops universe =
  {
    const = Fun.id;
    union = Rel.union;
    seq = Rel.seq;
    inter = Rel.inter;
    diff = Rel.diff;
    plus = Rel.transitive_closure;
    star = Rel.reflexive_transitive_closure ~universe;
    opt = Rel.reflexive_closure ~universe;
  }

let make ?static (x : Exec.t) =
  let s = match static with Some s -> s | None -> static_of x in
  let o = rel_ops x.universe in
  let f = fig8 o s x ~rfi:x.rfi ~rfe:x.rfe ~co:x.co ~fr:x.fr in
  let hb_star = o.star f.hb in
  let pb = pb o s ~prop:f.prop ~hb_star in
  let link, gp_link, rscs_link = links o s ~hb_star ~pb ~prop:f.prop in
  {
    x;
    acq_po = s.s_acq_po;
    po_rel = s.s_po_rel;
    rfi_rel_acq = f.rfi_rel_acq;
    rmb = s.s_rmb;
    wmb = s.s_wmb;
    mb = s.s_mb;
    rb_dep = s.s_rb_dep;
    sync = s.s_sync;
    crit = x.crit;
    gp = s.s_gp;
    rscs = s.s_rscs;
    at = at o x ~fre:x.fre ~coe:x.coe;
    dep = s.s_dep;
    rwdep = s.s_rwdep;
    overwrite = f.overwrite;
    to_w = f.to_w;
    rrdep = f.rrdep;
    strong_rrdep = f.strong_rrdep;
    to_r = f.to_r;
    strong_fence = s.s_strong_fence;
    fence = s.s_fence;
    ppo = f.ppo;
    cumul_fence = f.cumul_fence;
    prop = f.prop;
    hb = f.hb;
    pb;
    link;
    gp_link;
    rscs_link;
    rcu_path = rcu_path o ~equal:Rel.equal ~gp_link ~rscs_link;
  }

(* One-slot static-prefix cache.  The prefix reads only the shape's
   statics (events up to values, po, dependencies, crit), and the
   enumeration shares one shape physically across every witness of
   every structure of that shape, consecutive structures of a test
   usually among them; keying on that identity makes the cache hit for
   every candidate but the shape's first run, and a miss merely
   recomputes — caching is never observable in the results.  One slot
   per process: a process checks one test at a time (the pool, campaigns
   and the daemon check in forked workers). *)
let static_cache : (Exec.shape * static_ctx) option ref = ref None

let static_cached (x : Exec.t) =
  match !static_cache with
  | Some (sh, s) when sh == x.shape ->
      Obs.Counter.incr c_cache_hits;
      s
  | _ ->
      Obs.Counter.incr c_cache_misses;
      let s = static_of x in
      static_cache := Some (x.shape, s);
      s

let make_cached (x : Exec.t) = make ~static:(static_cached x) x

(* ------------------------------------------------------------------ *)
(* Symbolic: the axioms as CNF                                         *)
(* ------------------------------------------------------------------ *)

(* The chain over the symbolic witness relations of one event structure.
   The static prefix is taken from the representative execution and
   enters as constants; only the dynamic remainder becomes clauses.
   Because the whole chain is monotone in rf and co and the axioms are
   negative, the support-only encoding is exact (see [lib/exec/solve.ml]);
   exactness against the scalar [Axioms.consistent] is what the
   agreement suites in [test/test_sat.ml] exercise. *)

module S = Exec.Solve
module Sym = Exec.Solve.Sym

(* Symbolic rcu-path, tied off concretely: [T] on the must-fixpoint,
   [F] outside the may-fixpoint (both least fixpoints of the scalar
   step), and at each remaining pair, once asked for, a fresh variable
   with one support clause per instance of the six rules that derives
   it from may-supported tuples — at least the concrete rcu-path of any
   assignment on every pair asked for, which is exactly what the
   irreflexivity assertion needs. *)
let sym_rcu_path ctx universe gp_link rscs_link =
  let may_g = Sym.may gp_link and may_r = Sym.may rscs_link in
  let lfp g r =
    rcu_path (rel_ops universe) ~equal:Rel.equal ~gp_link:g ~rscs_link:r
  in
  let may_p = lfp may_g may_r in
  let must_p = lfp (Sym.must gp_link) (Sym.must rscs_link) in
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

(* Scpv is already asserted by the encoder (it doubles as the coherence
   prefilter), so this contributes At, Hb, Pb and Rcu. *)
let sat_axioms (e : S.enc) =
  let ctx = e.S.ctx and x = e.S.rep in
  let s = static_cached x in
  let o =
    {
      const = Sym.const ctx;
      union = Sym.union ctx;
      seq = Sym.seq ctx;
      inter = Sym.inter_const;
      diff = Sym.diff_const;
      plus = Sym.plus ctx;
      star = Sym.star ctx;
      opt = Sym.opt;
    }
  in
  let ext r = Sym.inter_const r x.Exec.ext_r in
  Sym.assert_empty ctx (at o x ~fre:(ext e.S.fr) ~coe:(ext e.S.co));
  let f =
    fig8 o s x
      ~rfi:(Sym.inter_const e.S.rf x.Exec.int_r)
      ~rfe:(ext e.S.rf) ~co:e.S.co ~fr:e.S.fr
  in
  Sym.assert_acyclic ctx f.hb;
  (* Pb and Rcu both vanish without a strong fence: pb has a
     strong-fence factor, and gp (hence gp-link, hence rcu-path) is a
     sub-relation of one. *)
  if not (Rel.is_empty s.s_strong_fence) then begin
    let hb_star = o.star f.hb in
    let pb = pb o s ~prop:f.prop ~hb_star in
    Sym.assert_acyclic ctx pb;
    if not (Rel.is_empty s.s_gp) then begin
      let _, gp_link, rscs_link = links o s ~hb_star ~pb ~prop:f.prop in
      Sym.assert_irreflexive ctx
        (sym_rcu_path ctx x.Exec.universe gp_link rscs_link)
    end
  end
