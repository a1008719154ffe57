(** Reference build of every event structure's statics ({!Exec.skeletons}'
    executable specification): each structure assembled on its own from
    its threads' Sem candidates, nothing shared between structures, so
    it cannot hand one structure another's statics.  Used by the sharing
    test in test_rel_dense; not used on any hot path. *)

module Iset = Rel.Iset

type statics = {
  events : Exec.Event.t array;
  po : Rel.t;
  addr : Rel.t;
  data : Rel.t;
  ctrl : Rel.t;
  rmw : Rel.t;
  universe : Iset.t;
  loc_r : Rel.t;
  int_r : Rel.t;
  ext_r : Rel.t;
  id_r : Rel.t;
  po_loc : Rel.t;
  crit : Rel.t;
  reads : Iset.t;
  writes : Iset.t;
  fences : Iset.t;
  mem : Iset.t;
  init_ws : Iset.t;
  co_writes : (string * int * int list) list;
      (** per location, in declaration order: the location, its
          initialising write and the non-init writes (event-id order) *)
  final_regs : (int * string * int) list;
  rf_choices : (int * int) list list;
}

(** [structures test] — one entry per event structure of [test], in
    {!Exec.skeletons}' order. *)
val structures : Litmus.Ast.t -> statics list
