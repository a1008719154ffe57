(* The cat language: consistency models as executable constraint sets, as
   in the herd simulator.

   - {!Ast}, {!Lexer}, {!Parser}: the language (see {!Stdmodels} for the
     supported dialect);
   - {!Interp}: compilation of a model to slot form, and evaluation
     against one candidate execution;
   - {!Stdmodels}: the shipped models (lk.cat, sc.cat, tso.cat, c11.cat,
     c11-psc.cat). *)

module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Interp = Interp
module Stdmodels = Stdmodels
module Explain = Explain

type model = Ast.t

(** [parse src] parses a cat model from source.  Raises {!Parser.Error} or
    {!Lexer.Error} on malformed input. *)
let parse = Parser.parse_model

(** [load_file path] parses the cat model stored at [path]. *)
let load_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse src

let c_cache_hits = Obs.Counter.make "cat.cache.hits"
let c_cache_misses = Obs.Counter.make "cat.cache.misses"
let h_replay = Obs.Histogram.make "cat.replay_us"

(** [to_oracle ~name model] packages a cat model as an
    {!Exec.Oracle.t} for the enumerator, budget-indexed per request
    (the fixpoint interpreter shares the test's deadline).

    The model is compiled when the oracle is built ({!Interp.compile}):
    every name is resolved to a slot and each statement classified
    static or dynamic.  Its static prefix — the slot array after every
    statement depending only on the shape's statics, not on the rf/co
    witness or on read values — is evaluated once per static shape and
    copied for each candidate of that shape ({!Interp.candidate}), with
    the witness slots the model reads filled in, before
    {!Interp.run_with_prefix} replays the rest.  The enumeration shares
    one {!Exec.shape} physically across every witness of every event
    structure of that shape, so one slot keyed on the shape's identity
    hits for all but the first candidate of each run of a shape.  No
    symbolic engine yet — a [Sat] request falls back enumeratively,
    counted, per {!Exec.Oracle.run}. *)
let to_oracle ~name (model : model) : Exec.Oracle.t =
  let compiled = Interp.compile model in
  let slot : (Exec.shape * Interp.prefix) option ref = ref None in
  let prefix_of budget (x : Exec.t) =
    match !slot with
    | Some (sh, p) when sh == x.Exec.shape ->
        Obs.Counter.incr c_cache_hits;
        p
    | _ ->
        Obs.Counter.incr c_cache_misses;
        let p = Interp.prefix ?budget compiled x in
        slot := Some (x.Exec.shape, p);
        p
  in
  Exec.Oracle.make ~name
    ~model:(fun budget ->
      (module struct
        let name = name

        let consistent (x : Exec.t) =
          let prefix = prefix_of budget x in
          let env = Interp.candidate prefix x in
          let t0 = if Obs.enabled () then Obs.now_us () else 0. in
          let holds = Interp.run_with_prefix ?budget prefix env in
          if Obs.enabled () then
            Obs.Histogram.observe h_replay (Obs.now_us () -. t0);
          holds
      end : Exec.Check.MODEL))
    ()

(** [explainer ?budget model] is a verdict-forensics hook for
    {!Exec.Check.model}: explanations of every failed check on a rejected
    candidate (see {!Explain}). *)
let explainer = Explain.explainer

(** The [as] names of [model]'s checks, in source order. *)
let check_names = Explain.check_names

(** The shipped LK model (lk.cat), parsed. *)
let lk = lazy (parse Stdmodels.lk)
