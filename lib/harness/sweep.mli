(** Systematic sweeps in the spirit of the paper's Section 5: classify
    many (usually generated) litmus tests under several models and check
    the simulated hardware stays within the LK model.

    With [?limits], every per-test check runs under a fresh
    {!Exec.Budget}: explosive or broken tests degrade to [Unknown]
    entries instead of stalling the sweep. *)

type stats = {
  n_tests : int;
  lk_allow : int;
  lk_forbid : int;
  lk_unknown : int;  (** budget tripped or model failed: partial result *)
  sc_forbid : int;  (** sanity: SC is the strongest model *)
  c11_disagree : int;  (** tests where C11 and LK verdicts differ *)
  unsound : (string * string) list;
      (** (test, architecture) cells where the simulator produced an
          outcome the LK model forbids — must be empty *)
  unknown : (string * string) list;
      (** (test, reason) for every check that gave up under its budget *)
}

(** [classify ?limits ?backend ?archs ?runs ?seed tests] runs every
    test under LK, SC and C11 and against the given simulated
    architectures.  [backend] picks the LK oracle's engine
    ({!Exec.Oracle.run}; default {!Exec.Oracle.default_backend}). *)
val classify :
  ?limits:Exec.Budget.limits ->
  ?backend:Exec.Check.backend ->
  ?archs:Hwsim.Arch.t list ->
  ?runs:int ->
  ?seed:int ->
  Litmus.Ast.t list ->
  stats

val pp : stats Fmt.t

(** Model-strength violations: a test SC allows but TSO forbids, or (on
    non-RCU tests) TSO allows but LK forbids.  Empty on a correct
    implementation; [Unknown] verdicts are skipped. *)
val strength_issues :
  ?limits:Exec.Budget.limits ->
  ?backend:Exec.Check.backend ->
  Litmus.Ast.t list ->
  string list
