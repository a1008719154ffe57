(** Binary relations over event identifiers.

    Candidate executions of litmus tests are graphs whose nodes are events
    (identified by small dense integers) and whose edges form relations such
    as program order [po] or reads-from [rf].  A consistency model written in
    the cat style is a set of constraints ([acyclic], [irreflexive], [empty])
    over relations built with the operators below.  This module is the entire
    algebra: sets of pairs plus union, intersection, difference, sequence,
    inverse, closures, cartesian products, and (a)cyclicity tests.

    The implementation is a dense bit matrix (a row of bits per source
    event), so the bulk operations are word-parallel and transitive
    closure runs in O(n³/63); the original pair-set implementation
    lives on in the test suite (test/rel_ref.ml), which checks this one
    against it.  Event ids must be non-negative. *)

module Iset = Iset

type t
(** A finite binary relation over event ids. *)

val empty : t

(** [is_empty t] holds iff [t] has no pairs — the cat [empty] check. *)
val is_empty : t -> bool

(** [mem x y t] holds iff [(x, y)] is an edge of [t]. *)
val mem : int -> int -> t -> bool

val add : int -> int -> t -> t

(** [remove x y t] is [t] without the edge [(x, y)]. *)
val remove : int -> int -> t -> t

val singleton : int -> int -> t
val of_list : (int * int) list -> t

(** [init n f] is [{(x, y) | 0 <= x, y < n, f x y}], built in one pass
    (no per-pair copy, unlike repeated {!add}). *)
val init : int -> (int -> int -> bool) -> t

(** [of_classes rel classes] relates distinct [x, y < Array.length
    classes] by their classes, a negative class standing for a class of
    its own: [`Same] when [x] and [y] share a class, [`Later] when they
    do and [x < y], [`Other] when they do not.  {!init} with that
    predicate, built a row at a time from one member mask per class
    number up to the largest, so class numbers should be dense. *)
val of_classes : [ `Same | `Later | `Other ] -> int array -> t

(** Pairs in lexicographic order. *)
val to_list : t -> (int * int) list

val cardinal : t -> int
val equal : t -> t -> bool

(** [subset t1 t2] holds iff every edge of [t1] is an edge of [t2]. *)
val subset : t -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t

(** [diff t1 t2] is set difference, the cat [\ ] operator. *)
val diff : t -> t -> t

val filter : (int -> int -> bool) -> t -> t
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> int -> unit) -> t -> unit

(** [iter_row f t x] calls [f y] for every [(x, y)] in [t], in
    increasing order of [y]. *)
val iter_row : (int -> unit) -> t -> int -> unit

(** [iter_row_inter f t1 x t2 z] calls [f y], in increasing order, for
    every [y] with [(x, y)] in [t1] and [(z, y)] in [t2] — one word-AND
    per 63 events.  With [t2] the inverse of [r], the [y] are the
    middle events of [(x, z)] in [t1 ; r]. *)
val iter_row_inter : (int -> unit) -> t -> int -> t -> int -> unit

val exists : (int -> int -> bool) -> t -> bool
val for_all : (int -> int -> bool) -> t -> bool

(** [inverse t] is the converse relation, the cat [^-1] operator. *)
val inverse : t -> t

val domain : t -> Iset.t
val range : t -> Iset.t

(** [field t] is [domain t ∪ range t]. *)
val field : t -> Iset.t

(** [seq t1 t2] is relational composition [t1 ; t2]:
    [{(x, z) | ∃y. (x, y) ∈ t1 ∧ (y, z) ∈ t2}]. *)
val seq : t -> t -> t

(** [seqs [t1; ...; tn]] is [t1 ; ... ; tn].  Raises [Invalid_argument] on
    the empty list. *)
val seqs : t list -> t

(** [set_row_from ~src j i t] is [t] with the successor row of [i]
    replaced wholesale by row [j] of [src] — the from-reads primitive
    of the enumerator: a read's fr row is exactly the coherence row of
    its writer. *)
val set_row_from : src:t -> int -> int -> t -> t

(** [id_of_set s] is the identity relation restricted to [s] — the cat
    bracket [[S]].  [seq [S] r] keeps edges of [r] whose source is in [S]. *)
val id_of_set : Iset.t -> t

val id_of_list : int list -> t

(** [cartesian s1 s2] is the direct product [s1 × s2]. *)
val cartesian : Iset.t -> Iset.t -> t

val restrict_domain : Iset.t -> t -> t
val restrict_range : Iset.t -> t -> t

(** [restrict s t] keeps edges with both endpoints in [s]. *)
val restrict : Iset.t -> t -> t

(** [transitive_closure t] is [t^+]. *)
val transitive_closure : t -> t

(** [reflexive_closure ~universe t] is [t^?]: [t ∪ id] over [universe]. *)
val reflexive_closure : universe:Iset.t -> t -> t

(** [reflexive_transitive_closure ~universe t] is [t^*]. *)
val reflexive_transitive_closure : universe:Iset.t -> t -> t

(** [complement ~universe t] is [universe² \ t], the cat [~] operator. *)
val complement : universe:Iset.t -> t -> t

(** The cat [irreflexive] check: no pair [(x, x)]. *)
val is_irreflexive : t -> bool

(** The cat [acyclic] check: [t^+] is irreflexive. *)
val is_acyclic : t -> bool

(** [find_cycle t] is a shortest cycle [e0; e1; ...; e0] of [t] (first and
    last elements equal), or [None] if [t] is acyclic.  Used to explain why
    an execution is forbidden. *)
val find_cycle : t -> int list option

(** [topological_sort ~universe t] is a linearisation of [universe]
    compatible with [t], or [None] if [t] is cyclic. *)
val topological_sort : universe:Iset.t -> t -> int list option

(** [linear_extensions elems] enumerates all total strict orders over
    [elems], as relations.  Used to enumerate coherence orders per
    location. *)
val linear_extensions : int list -> t list

val pp : t Fmt.t

(** What remains of the bit-plane batch kernel: the two names lkbench's
    trace replay compiles against, kept until that replay reads
    [lib/obs] instead.  Nothing in the library uses them. *)
module Batch : sig
  (** 63, the usable bits of an OCaml [int]. *)
  val width : int

  (** [full_mask k] has the low [k] bits set ([0 <= k <= width]). *)
  val full_mask : int -> int
end
