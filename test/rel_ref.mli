(** Reference implementation of the relation algebra ({!Rel}'s executable
    specification): a [Set.Make] over ordered pairs, operation for
    operation the same interface as the dense bitset kernel.  Used by the
    differential property suite and as a readable statement of what each
    operator means; not used on any hot path. *)

module Iset = Rel.Iset

type t

val empty : t
val is_empty : t -> bool
val mem : int -> int -> t -> bool
val add : int -> int -> t -> t
val singleton : int -> int -> t
val of_list : (int * int) list -> t

(** Pairs in lexicographic order. *)
val to_list : t -> (int * int) list

val cardinal : t -> int
val equal : t -> t -> bool
val subset : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val filter : (int -> int -> bool) -> t -> t
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> int -> unit) -> t -> unit
val exists : (int -> int -> bool) -> t -> bool
val for_all : (int -> int -> bool) -> t -> bool
val inverse : t -> t
val domain : t -> Iset.t
val range : t -> Iset.t
val field : t -> Iset.t
val seq : t -> t -> t
val seqs : t list -> t
val id_of_set : Iset.t -> t
val id_of_list : int list -> t
val cartesian : Iset.t -> Iset.t -> t
val restrict_domain : Iset.t -> t -> t
val restrict_range : Iset.t -> t -> t
val restrict : Iset.t -> t -> t
val transitive_closure : t -> t
val reflexive_closure : universe:Iset.t -> t -> t
val reflexive_transitive_closure : universe:Iset.t -> t -> t
val complement : universe:Iset.t -> t -> t
val is_irreflexive : t -> bool
val is_acyclic : t -> bool
val find_cycle : t -> int list option
val topological_sort : universe:Iset.t -> t -> int list option
val linear_extensions : int list -> t list
val pp : t Fmt.t
