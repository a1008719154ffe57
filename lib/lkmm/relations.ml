(* The relations of the LK memory model, exactly as defined in Figure 8 and
   Figure 12 of the paper.  Everything is computed once per candidate
   execution into a [ctx] record.

   The definitions split into a *static* prefix — relations determined by
   the event structure alone (po, dependencies, fences, RCU critical
   sections), identical for every rf/co witness of one structure — and a
   *dynamic* remainder built on rf, co and their derivatives.  [static_of]
   computes the prefix; [make ?static] reuses a previously computed one,
   and [make_cached] keys a one-slot cache on the physical identity of
   [x.shape], which the enumeration shares across all witnesses of every
   event structure of one static shape. *)

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

let make ?static (x : Exec.t) =
  let s = match static with Some s -> s | None -> static_of x in
  let ( |>> ) = Rel.seq in
  let universe = x.universe in
  let star r = Rel.reflexive_transitive_closure ~universe r in
  let opt r = Rel.reflexive_closure ~universe r in
  let rfi_rel_acq = s.rel_id |>> x.rfi |>> s.acq_id in
  (* Figure 8, the witness-dependent remainder *)
  let overwrite = Rel.union x.co x.fr in
  let to_w = Rel.union s.s_rwdep (Rel.inter overwrite x.int_r) in
  let rrdep = Rel.union x.addr (s.s_dep |>> x.rfi) in
  let strong_rrdep = Rel.inter (Rel.transitive_closure rrdep) s.s_rb_dep in
  let to_r = Rel.union strong_rrdep rfi_rel_acq in
  let ppo =
    star rrdep |>> Rel.union to_r (Rel.union to_w s.s_fence)
  in
  (* A-cumul(r) := rfe? ; r *)
  let a_cumul r = opt x.rfe |>> r in
  let cumul_fence =
    Rel.union (a_cumul (Rel.union s.s_strong_fence s.s_po_rel)) s.s_wmb
  in
  let prop =
    opt (Rel.inter overwrite x.ext_r) |>> star cumul_fence |>> opt x.rfe
  in
  let hb =
    Rel.union
      (Rel.inter (Rel.diff prop x.id_r) x.int_r)
      (Rel.union ppo x.rfe)
  in
  let pb = prop |>> s.s_strong_fence |>> star hb in
  (* Figure 12 *)
  let link = star hb |>> star pb |>> prop in
  let gp_link = s.s_gp |>> link in
  let rscs_link = s.s_rscs |>> link in
  (* rec rcu-path, by Kleene iteration of its monotone defining equation *)
  let rcu_path =
    let step p =
      List.fold_left Rel.union gp_link
        [
          p |>> p;
          gp_link |>> rscs_link;
          rscs_link |>> gp_link;
          gp_link |>> p |>> rscs_link;
          rscs_link |>> p |>> gp_link;
        ]
    in
    let rec go p =
      Obs.Counter.incr c_fixpoint;
      let next = step p in
      if Rel.equal next p then p else go next
    in
    go gp_link
  in
  {
    x;
    acq_po = s.s_acq_po;
    po_rel = s.s_po_rel;
    rfi_rel_acq;
    rmb = s.s_rmb;
    wmb = s.s_wmb;
    mb = s.s_mb;
    rb_dep = s.s_rb_dep;
    sync = s.s_sync;
    crit = x.crit;
    gp = s.s_gp;
    rscs = s.s_rscs;
    dep = s.s_dep;
    rwdep = s.s_rwdep;
    overwrite;
    to_w;
    rrdep;
    strong_rrdep;
    to_r;
    strong_fence = s.s_strong_fence;
    fence = s.s_fence;
    ppo;
    cumul_fence;
    prop;
    hb;
    pb;
    link;
    gp_link;
    rscs_link;
    rcu_path;
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
(* Batched evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* The same dynamic remainder, for up to 63 pairwise static-compatible
   witnesses at once: every witness-dependent relation is stacked into
   candidate-major bit planes ({!Rel.Batch}) and the Figure 8 chain
   runs word-parallel across all of them, with the static prefix —
   equal across the batch by {!Exec.Execution.static_compatible} —
   broadcast from the first candidate's cache entry.  The axioms are decided in Figure 3
   order, and after each one the surviving-plane mask shrinks — decided
   candidates are dropped from the remaining work entirely (the At
   stage restricts its inputs, the Hb/Pb/Rcu chain is built only for
   planes that survived At, and Pb/Rcu inputs are re-restricted), which
   is work the scalar path cannot skip: [make] computes the whole chain
   eagerly before any axiom is tested. *)

module B = Rel.Batch

let c_batch_early = Obs.Counter.make "lkmm.batch.early_exit"

let consistent_mask ~coherent ~mask (xs : Exec.t array) =
  let x0 = xs.(0) in
  let s = static_cached x0 in
  let n = Array.length x0.Exec.events in
  let bc ~mask r = B.broadcast ~n ~mask r in
  let dyn ~mask f = B.of_rels ~n ~mask (Array.map f xs) in
  let live = ref mask in
  let settle ~last m =
    if not last then Obs.Counter.add c_batch_early (B.popcount (!live land lnot m));
    live := !live land m
  in
  (* Scpv: acyclic (po-loc | com) — exactly the sc-per-location
     prefilter, so when the caller vouches for coherence it is already
     decided for every live plane. *)
  if not coherent then
    settle ~last:false
      (B.acyclic_mask ~mask:!live
         (B.union
            (bc ~mask:!live x0.Exec.po_loc)
            (dyn ~mask:!live (fun x -> x.Exec.com))));
  (* At: empty (rmw & (fre ; coe)) *)
  if !live <> 0 then
    settle ~last:false
      (B.empty_mask ~mask:!live
         (B.inter
            (bc ~mask:!live x0.Exec.rmw)
            (B.seq
               (dyn ~mask:!live (fun x -> x.Exec.fre))
               (dyn ~mask:!live (fun x -> x.Exec.coe)))));
  (* Hb, Pb and Rcu share the Figure 8 chain. *)
  if !live <> 0 then begin
    let lm = !live in
    let bc r = bc ~mask:lm r and dyn f = dyn ~mask:lm f in
    let ( |>> ) = B.seq in
    let star r = B.reflexive_transitive_closure ~mask:lm r in
    let opt r = B.reflexive_closure ~mask:lm r in
    let rfi = dyn (fun x -> x.Exec.rfi) in
    let rfe = dyn (fun x -> x.Exec.rfe) in
    let overwrite =
      B.union (dyn (fun x -> x.Exec.co)) (dyn (fun x -> x.Exec.fr))
    in
    let int_b = bc x0.Exec.int_r in
    let rfi_rel_acq = bc s.rel_id |>> rfi |>> bc s.acq_id in
    let to_w = B.union (bc s.s_rwdep) (B.inter overwrite int_b) in
    let rrdep = B.union (bc x0.Exec.addr) (bc s.s_dep |>> rfi) in
    let strong_rrdep =
      B.inter (B.transitive_closure rrdep) (bc s.s_rb_dep)
    in
    let to_r = B.union strong_rrdep rfi_rel_acq in
    let ppo = star rrdep |>> B.union to_r (B.union to_w (bc s.s_fence)) in
    let cumul_fence =
      B.union
        (opt rfe |>> bc (Rel.union s.s_strong_fence s.s_po_rel))
        (bc s.s_wmb)
    in
    let prop =
      opt (B.inter overwrite (bc x0.Exec.ext_r))
      |>> star cumul_fence |>> opt rfe
    in
    let hb =
      B.union
        (B.inter (B.diff prop (bc x0.Exec.id_r)) int_b)
        (B.union ppo rfe)
    in
    settle ~last:false (B.acyclic_mask ~mask:lm hb);
    if !live <> 0 then begin
      let lm = !live in
      let prop = B.restrict ~mask:lm prop in
      let hb = B.restrict ~mask:lm hb in
      let pb = prop |>> bc s.s_strong_fence |>> star hb in
      settle ~last:false (B.acyclic_mask ~mask:lm pb);
      if !live <> 0 then begin
        let lm = !live in
        let link =
          star (B.restrict ~mask:lm hb)
          |>> star (B.restrict ~mask:lm pb)
          |>> B.restrict ~mask:lm prop
        in
        let gp_link = bc s.s_gp |>> link in
        let rscs_link = bc s.s_rscs |>> link in
        let step p =
          List.fold_left B.union gp_link
            [
              p |>> p;
              gp_link |>> rscs_link;
              rscs_link |>> gp_link;
              gp_link |>> p |>> rscs_link;
              rscs_link |>> p |>> gp_link;
            ]
        in
        let rec go p =
          Obs.Counter.incr c_fixpoint;
          let next = step p in
          if B.equal next p then p else go next
        in
        settle ~last:true (B.irreflexive_mask ~mask:lm (go gp_link))
      end
    end
  end;
  !live
