(** A checking oracle: one first-class value bundling every engine a
    model ships — the model the enumerator decides candidates with
    (always) and the symbolic SAT engine (optional).  Engine selection
    is a {!Check.backend} request at the call site; the oracle resolves
    it against what it actually has, falling back (counted, and
    recorded on the result) when the symbolic engine is requested but
    absent.

    Construct one next to the model ([Lkmm.oracle], [Cat.to_oracle],
    …) and pass it as a single value through Runner, Pool, Serve,
    Campaign, Sweep and the CLIs. *)

type backend_request = Check.backend

type t = {
  name : string;  (** the model's name, stable across engines *)
  model : Budget.t option -> (module Check.MODEL);
      (** the model the enumerator runs — always present; the budget
          parameter serves models whose [consistent] ticks it (cat
          interpretation) *)
  batch : (Budget.t option -> Check.batch_fn) option;
      (** always [None], and read by nothing in the library: kept for
          lkbench's trace replay until it reads [lib/obs] *)
  solve : Solve.solve_fn option;  (** the symbolic engine *)
}

(** [scalar name model] — an oracle with only the enumerative engine. *)
val scalar : string -> (Budget.t option -> (module Check.MODEL)) -> t

(** [of_model (module M)] — a scalar-only oracle around a
    budget-oblivious model, named after it. *)
val of_model : (module Check.MODEL) -> t

val make :
  name:string ->
  model:(Budget.t option -> (module Check.MODEL)) ->
  ?solve:Solve.solve_fn ->
  unit ->
  t

val name : t -> string
val model : t -> ?budget:Budget.t -> unit -> (module Check.MODEL)

(** The engine every default names: [Enum].  {!run}, {!run_all} and
    {!allowed_outcomes} without [?backend], the CLIs' [--backend], the
    daemon's and the campaign's default configs all read it, and a
    [Sat] request that falls back to enumeration runs it. *)
val default_backend : backend_request

(** [run t test] checks [test] through the requested backend (default
    {!default_backend}):
    - [Sat]: the symbolic engine if present; otherwise the default
      enumerative engine runs, the [sat.fallback] counter ticks, and
      the result carries [sat = Some {fallback = true; _}];
    - [Enum]: the enumerator — one candidate at a time, and the
      reference engine.

    [?explainer] forwards to {!Check.run} on the enumerative paths and
    to the symbolic engine.  [run t test] is [run_all [t] test]'s one
    result. *)
val run :
  ?budget:Budget.t ->
  ?explainer:(Execution.t -> Explain.t list) ->
  ?backend:backend_request ->
  t ->
  Litmus.Ast.t ->
  Check.result

(** [run_all ts test] checks [test] under every oracle of the non-empty
    list [ts] and returns their results in order, each equal to
    [run]'s for that oracle.  Under [Enum] it is one {!Check.run}: one
    enumeration and one prefilter per test, each oracle deciding the
    live candidates through its own model.  Under [Sat], an
    oracle with a solver runs it on its own, and the others share one
    enumeration on the default engine, each flagged as a fallback and
    counted in [sat.fallback].  One budget bounds the call: its timeout
    covers every oracle, and each engine run's candidate caps trip
    where that run's would alone (see {!Check.run}). *)
val run_all :
  ?budget:Budget.t ->
  ?backend:backend_request ->
  t list ->
  Litmus.Ast.t ->
  Check.result list

(** Model-allowed outcomes through the oracle's enumerator: the
    symbolic engine answers the per-test existential question, not the
    all-outcomes one.  Raises {!Budget.Exceeded} like
    {!Check.allowed_outcomes}. *)
val allowed_outcomes :
  ?budget:Budget.t ->
  t ->
  Litmus.Ast.t ->
  Execution.outcome list
