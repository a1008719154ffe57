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
    closure runs in O(n³/63); the original pair-set implementation is
    retained as {!Reference} and checked against this one by the
    differential property suite.  Event ids must be non-negative. *)

module Iset = Iset

(** The retained pair-set implementation: the same algebra on the same
    pair-list interface, kept as the executable specification of this
    module (and exercised against it by test/test_rel_dense.ml). *)
module Reference = Rel_ref

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
    replaced wholesale by row [j] of [src] — the delta-patch primitive
    of the incremental enumerator: when a read's writer changes from
    [w] to [w'], its from-reads row becomes exactly the coherence row
    of [w']. *)
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

(** Candidate-major bit planes: up to 63 relations over one small event
    universe, operated on word-parallel.

    The scalar rows above pack one relation's successors into 63-bit
    words, wasting most of each word on litmus-sized universes.
    Candidates of one event structure differ only in their witness
    relations over the {e same} universe, so this module transposes the
    packing: one word per event pair [(x, y)], bit [c] meaning "edge
    [(x, y)] is present in candidate [c]".  The algebra below evaluates
    all K ≤ 63 candidates in the same pass, and per-plane masks let
    decided candidates drop out ({!Batch.restrict}) so they stop
    costing work.

    The universe [[0, n)] is fixed at construction; binary operations
    require equal universes.  All operations are persistent. *)
module Batch : sig
  type rel := t

  type t
  (** A batch of up to {!width} relation planes over one universe. *)

  (** Planes per batch: 63, the usable bits of an OCaml [int]. *)
  val width : int

  (** [full_mask k] has the low [k] bits set ([0 <= k <= width]). *)
  val full_mask : int -> int

  val n : t -> int

  (** The batch of [n]² empty planes. *)
  val create : n:int -> t

  (** [of_rels ~n ?mask rels] stacks [rels.(c)] into plane [c], keeping
      only the planes selected by [mask] (default: all).  Raises
      [Invalid_argument] beyond {!width} relations or on ids outside
      [[0, n)]. *)
  val of_rels : n:int -> ?mask:int -> rel array -> t

  (** [broadcast ~n ~mask r] holds the (witness-independent) relation
      [r] in every plane of [mask], and the empty relation elsewhere. *)
  val broadcast : n:int -> mask:int -> rel -> t

  (** Plane [c], back as a scalar relation. *)
  val plane : t -> int -> rel

  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t

  (** Relational composition, per plane; zero pair-words (decided
      planes, sparse relations) skip the inner loop. *)
  val seq : t -> t -> t

  val inverse : t -> t

  (** Warshall's closure across all planes at once. *)
  val transitive_closure : t -> t

  (** [reflexive_closure ~mask t] sets the diagonal in the planes of
      [mask] — [t?] over the full universe [[0, n)]. *)
  val reflexive_closure : mask:int -> t -> t

  val reflexive_transitive_closure : mask:int -> t -> t

  (** [complement ~mask t] is universe² \ t in each plane of [mask]. *)
  val complement : mask:int -> t -> t

  (** [restrict ~mask t] zeroes every plane outside [mask]; the batched
      early-exit: decided candidates' planes stop costing work. *)
  val restrict : mask:int -> t -> t

  val equal : t -> t -> bool

  (** [mem x y t] is the mask of planes containing edge [(x, y)]. *)
  val mem : int -> int -> t -> int

  (** Mask of planes whose relation is non-empty / has a diagonal
      edge / has a cycle — the cat checks, decided for all planes in
      one scan. *)
  val nonempty_mask : t -> int

  val reflexive_mask : t -> int
  val cyclic_mask : t -> int

  (** The same checks relative to a mask of still-undecided planes:
      [acyclic_mask ~mask t] is the planes of [mask] whose relation is
      acyclic, and so on. *)
  val acyclic_mask : mask:int -> t -> int

  val irreflexive_mask : mask:int -> t -> int
  val empty_mask : mask:int -> t -> int
end
