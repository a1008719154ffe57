(** The relations of the LK memory model — Figure 8 and Figure 12 of the
    paper.  Their witness-dependent part is written once, over the
    operations it uses, and evaluated by two engines: {!make} over
    {!Rel} (one candidate, into a {!ctx} record) and {!sat_axioms} over
    {!Exec.Solve.Sym}.

    Every field name matches the paper's (OCaml-ised: [to-w] is [to_w],
    [rcu-path] is [rcu_path]).  The definitions, for reference:

    {v
    dep          := addr | data
    rwdep        := (dep | ctrl) & (R * W)
    overwrite    := co | fr
    to-w         := rwdep | (overwrite & int)
    rrdep        := addr | (dep ; rfi)
    strong-rrdep := rrdep^+ & rb-dep
    to-r         := strong-rrdep | rfi-rel-acq
    strong-fence := mb | gp
    fence        := strong-fence | po-rel | wmb | rmb | acq-po
    ppo          := rrdep^* ; (to-r | to-w | fence)
    cumul-fence  := A-cumul(strong-fence | po-rel) | wmb
    prop         := (overwrite & ext)? ; cumul-fence^* ; rfe?
    hb           := ((prop \ id) & int) | ppo | rfe
    pb           := prop ; strong-fence ; hb^*
    gp           := (po & (_ * Sync)) ; po?
    rscs         := po ; crit^-1 ; po?
    link         := hb^* ; pb^* ; prop
    rec rcu-path := gp-link | rcu-path;rcu-path | ...
    v} *)

module Iset = Rel.Iset

type ctx = {
  x : Exec.t;
  (* auxiliary relations (Section 3.1) *)
  acq_po : Rel.t;  (** first event is an acquire *)
  po_rel : Rel.t;  (** second event is a release *)
  rfi_rel_acq : Rel.t;  (** internal reads-from, release into acquire *)
  rmb : Rel.t;  (** reads separated by smp_rmb *)
  wmb : Rel.t;  (** writes separated by smp_wmb *)
  mb : Rel.t;  (** events separated by smp_mb *)
  rb_dep : Rel.t;  (** reads separated by smp_read_barrier_depends *)
  (* RCU base relations (Figure 12) *)
  sync : Iset.t;  (** the F[sync-rcu] events *)
  crit : Rel.t;  (** outermost rcu_read_lock -> matching unlock *)
  gp : Rel.t;
  rscs : Rel.t;
  (* Figure 3 *)
  at : Rel.t;  (** rmw & (fre ; coe), empty under the At axiom *)
  (* Figure 8 *)
  dep : Rel.t;
  rwdep : Rel.t;
  overwrite : Rel.t;
  to_w : Rel.t;
  rrdep : Rel.t;
  strong_rrdep : Rel.t;
  to_r : Rel.t;
  strong_fence : Rel.t;  (** mb | gp, per Figure 12 *)
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
  rcu_path : Rel.t;  (** least fixed point of the recursive definition *)
}

(** The witness-independent prefix of the model: relations determined by
    the event structure alone (po, dependencies, fences, gp, rscs),
    identical for every rf/co witness of one structure. *)
type static_ctx

(** [static_of x] computes the static prefix of [x]. *)
val static_of : Exec.t -> static_ctx

(** [static_cached x] is [static_of x] through the one-slot per-process
    cache keyed on the physical identity of [x.shape]: every candidate
    of every event structure of one static shape hits it after the
    first, including the SAT engine's per-structure representatives. *)
val static_cached : Exec.t -> static_ctx

(** [make ?static x] computes every relation of the model on execution
    [x].  With [?static], the witness-independent prefix is reused
    instead of recomputed; it must come from an execution with the same
    event structure (same events, po, dependencies and fences — only
    rf/co may differ). *)
val make : ?static:static_ctx -> Exec.t -> ctx

(** [make_cached x] is [make x] through {!static_cached}.  Results are
    identical to [make x]. *)
val make_cached : Exec.t -> ctx

(** [sat_axioms] is the model's axioms callback for {!Exec.Solve}: At,
    Hb, Pb and Rcu as CNF over the symbolic witness relations of one
    event structure (the encoder asserts Scpv), with the static prefix
    entered as constants.  Pb is skipped without a strong fence and Rcu
    without a grace period; rcu-path is tied off with one support clause
    per rule instance between the least fixpoints of its may- and
    must-projections. *)
val sat_axioms : Exec.Solve.axioms
