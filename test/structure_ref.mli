(** Reference definitions for the enumeration's unbuilt structures
    ({!Exec.structure}): the condition gate, deadness and the candidate
    claim decided over the built skeleton.  test_rel_dense checks the
    library's versions against them; not used on any hot path. *)

(** The condition gate over a built skeleton: {!Exec.asserted_cond}'s
    specification. *)
val asserted_cond : Exec.skeleton -> Exec.cond3

(** Some read has no candidate writer: {!Exec.dead}'s specification. *)
val dead : Exec.skeleton -> bool

(** The product of the reads' rf choice counts and, per location, the
    factorial of its non-init writes (saturating): {!Exec.claim}'s
    specification. *)
val claim : Exec.skeleton -> int
