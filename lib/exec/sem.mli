(** Per-thread semantics: symbolic execution of one thread under every
    possible assignment of values to its reads.

    Each candidate carries the thread's events in program order (with
    identifiers local to the thread, re-based by {!Execution.of_test}),
    its dependency and rmw edges over those local identifiers, and the
    final register values the run produces. *)

(** An event before thread identifiers and global ids are assigned. *)
type proto_event = {
  dir : Event.dir;
  loc : string;
  v : int;
  annot : Event.annot;
}

(** One symbolic run of a thread. *)
type candidate = {
  events : proto_event list;  (** in program order *)
  addr : (int * int) list;  (** address dependencies, local event ids *)
  data : (int * int) list;  (** data dependencies *)
  ctrl : (int * int) list;  (** control dependencies *)
  rmw : (int * int) list;  (** read/write pairs of atomic RMWs *)
  regs : (string * int) list;  (** final register values *)
}

(** Evaluate a binary operation on concrete values (comparisons and
    logical connectives yield 0/1).  Shared with the hardware
    simulator's interpreter. *)
val eval_binop : Litmus.Ast.binop -> int -> int -> int

(** [thread_candidates ~addresses domain instrs] is every candidate of
    one thread of a test whose {!Litmus.Ast.addresses} are [addresses],
    where [domain loc] gives the values a read of [loc] may observe. *)
val thread_candidates :
  addresses:(string * int) list ->
  (string -> int list) ->
  Litmus.Ast.instr list ->
  candidate list
