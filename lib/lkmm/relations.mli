(** The relations of the LK memory model — Figure 8 and Figure 12 of the
    paper, computed once per candidate execution into a {!ctx} record.

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
    identical for every rf/co witness of one structure.  Concrete so the
    symbolic backend ({!Symbolic}) can enter them as constants. *)
type static_ctx = {
  acq_id : Rel.t;  (** identity over read-acquires *)
  rel_id : Rel.t;  (** identity over write-releases *)
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

(** [static_of x] computes the static prefix of [x]. *)
val static_of : Exec.t -> static_ctx

(** [static_cached x] is [static_of x] through the one-slot per-process
    cache keyed on the physical identity of [x.events]. *)
val static_cached : Exec.t -> static_ctx

(** [make ?static x] computes every relation of the model on execution
    [x].  With [?static], the witness-independent prefix is reused
    instead of recomputed; it must come from an execution with the same
    event structure (same events, po, dependencies and fences — only
    rf/co may differ). *)
val make : ?static:static_ctx -> Exec.t -> ctx

(** [make_cached x] is [make x] through a one-slot static-prefix cache
    keyed on the physical identity of [x.events], which the streaming
    enumeration shares across all witnesses of one event structure.
    Results are identical to [make x]. *)
val make_cached : Exec.t -> ctx

(** [consistent_mask ~coherent ~mask xs] decides the LK model for up to
    63 pairwise static-compatible witnesses
    ({!Exec.Execution.static_compatible}) in one word-parallel pass:
    the witness-dependent relations are stacked into candidate-major
    bit planes ({!Rel.Batch}), the static prefix — shared across the
    batch by the compatibility contract — is broadcast from [xs.(0)]'s
    cache entry, and the axioms are applied in Figure 3 order with the
    surviving-plane mask shrinking after each — decided candidates drop
    out of the remaining work.  Bit [c] of the result is set iff bit
    [c] of [mask] is and [xs.(c)] is consistent ({!Axioms.consistent}).
    With [~coherent], the sc-per-variable axiom is taken as already
    decided (the caller ran the sc-per-location prefilter, which is the
    same check). *)
val consistent_mask : coherent:bool -> mask:int -> Exec.t array -> int
