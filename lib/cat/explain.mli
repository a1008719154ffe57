(** Provenance-tracking explanations for cat-model verdicts.

    For a candidate execution a cat model rejects, produces one
    {!Exec.Explain.t} per failed check: a minimal witnessing cycle
    (shortest, BFS over the dense relation kernel) for
    [acyclic]/[irreflexive], the offending pairs for [empty], each edge
    labelled with the branch of the checked relation it belongs to and
    decomposed — through unions, sequences, closures, inverses, named
    definitions and unary function application — down to primitive
    rf/co/fr/po/dependency edges.  The edge's label is the branch that
    same descent takes through unions.  A recursive definition
    ([rcu-path]) is entered at the Kleene stage just before the first
    that holds the edge ({!Interp.stages}), so each recursive reference
    in its body holds an edge of a lower stage: one descent, with no
    search, reaches primitive edges.

    Every explanation is checked with {!Exec.Explain.validate} against
    the model's own evaluated relations before it is returned; a
    mismatch raises {!Exec.Explain.Invalid} (a hard error — never a
    silently wrong witness). *)

(** [explainer ?budget model] compiles [model] once ({!Interp.compile})
    and returns a verdict-forensics hook for {!Exec.Check.run}'s
    [?explainer]: the explanations of every failed check of [model] on
    a candidate, [[]] iff it is consistent.  [?budget] bounds each
    statement replay like {!Interp.run}. *)
val explainer :
  ?budget:Exec.Budget.t -> Ast.t -> Exec.t -> Exec.Explain.t list

(** The [as] names of the model's checks, in source order (the
    vocabulary [--explain-diff] compares). *)
val check_names : Ast.t -> string list

(** [resolver model x] maps every relation name of [model]'s full
    environment on [x] (primitive and defined alike) to its evaluated
    relation — for re-validating shipped explanations with
    {!Exec.Explain.validate}. *)
val resolver :
  ?budget:Exec.Budget.t -> Ast.t -> Exec.t -> string -> Rel.t option

(** Render a cat expression back to concrete syntax (used for opaque
    edge labels; exposed for tests). *)
val render : Ast.expr -> string
