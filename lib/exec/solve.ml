(* The symbolic checking backend: one event structure's candidate space
   rendered as CNF and decided by the CDCL core in [lib/sat], instead
   of enumerated.

   Encoding, per {!Execution.skeleton}:
   - rf: one-hot choice variables per read over its candidate writers;
   - co: per-location boolean order variables [before(w,w')] with
     antisymmetry by literal sign, totality by construction, and
     transitivity as one clause per cyclic orientation of each
     unordered triple of writes (forbidding that 3-cycle);
   - fr: derived, [fr = rf^-1 ; co];
   - the sc-per-location check (acyclic po-loc | rf | co | fr), which
     doubles as the coherence prefilter and the native model's Scpv,
     as Herding Cats' five coherence patterns over each po-loc pair
     (a, b): coWW [co(a,b)]; coRW1 [~rf(b,a)]; coRW2
     [~rf(w,a) \/ co(w,b)]; coWR [~rf(w,b) \/ co(a,w)] for w <> a;
     coRR [~rf(w1,a) \/ ~rf(w2,b) \/ co(w1,w2)] for w1 <> w2.  Each
     pattern closes a cycle, so the clauses are necessary.  They are
     sufficient: key a write by its co position and a read by its
     writer's position plus 1/2.  rf, co and fr strictly increase the
     key, and under the clauses a po-loc edge never decreases it,
     staying level only between two reads of the same write — so a
     cycle would be a po cycle, which cannot exist;
   - the final-state condition's undecided residue, Tseitin-encoded
     over the co-maximality literals of each location's writes;
   - the model's axioms, contributed by an [axioms] callback over the
     {!Sym} combinators (native LKMM: [Lkmm.Relations.sat_axioms]).

   A symbolic relation ({!Sym.t}) is not a matrix of literals but its
   may/must projections plus literals created on demand, so the CNF is
   the cone of the asserted axioms: an entry nothing reaches costs no
   variable and no clause.

   None of it is built for a structure the condition refutes, nor the
   structure itself: the condition is first evaluated over the unbuilt
   structure's constants in three-valued logic
   ({!Execution.asserted_cond}, the gate the enumerative engines'
   verdict stream shares), and a structure whose asserted polarity is
   statically false is unsatisfiable outright — the case that would
   otherwise end in the empty clause.

   Every derived relation of the LK chain is *monotone* in rf and co
   (nothing negates a dynamic relation — only static relations are
   subtracted or intersected), so the projections are exact (an entry
   is [T] on must pairs and [F] outside may in every assignment) and
   auxiliary variables carry one-sided "support" clauses only:
   components true force the derived entry true, making every
   auxiliary at least its least fixpoint in any model.  The axioms are
   all negative (acyclicity, irreflexivity, emptiness), so deciding
   them against these over-approximations is exact — a real violation
   forces the asserted-false literal true, and a genuinely consistent
   witness extends to a model by valuing every auxiliary exactly at its
   least fixpoint.  No refinement loop is needed.

   Acyclicity of the model's relations (hb, pb) is encoded through
   reachability witnesses: ¬t(x,x) for the transitive-closure entries,
   whose demand stays inside x's strongly connected component of the
   may-relation.  A must-cycle is the empty clause, and a self-loop or
   an edge closing a must-path back is asserted false up front and
   left out of the closure.

   [run] asks the existential question directly — "is there a
   consistent candidate matching the condition?" — decodes any model
   back to an {!Execution.t} and re-validates it through the scalar
   [M.consistent] path: a decoded witness failing re-validation is a
   hard {!Spurious} error (surfacing as [Model_error]), mirroring
   [Explain.validate]'s stance that a solver bug must never become a
   verdict. *)

type lit3 = F | T | L of int

type ctx = { s : Sat.Solver.t; n : int }

exception Spurious of string

let neg = function F -> T | T -> F | L l -> L (-l)

(* Assert a disjunction; [T] members satisfy it statically, [F] members
   drop out.  An all-[F] clause marks the instance unsatisfiable. *)
let clause ctx lits =
  if not (List.exists (function T -> true | F | L _ -> false) lits) then
    Sat.Solver.add_clause ctx.s
      (List.filter_map (function L l -> Some l | F | T -> None) lits)

let fresh ctx = L (Sat.Solver.new_var ctx.s)

(* Support-only disjunction: the result is forced true by any true
   member.  Exact for the monotone derivation chain; not an
   equivalence. *)
let or_support ctx lits =
  if List.exists (function T -> true | F | L _ -> false) lits then T
  else
    match List.filter (function F -> false | T | L _ -> true) lits with
    | [] -> F
    | [ l ] -> l
    | lits ->
        let z = fresh ctx in
        List.iter (fun l -> clause ctx [ neg l; z ]) lits;
        z

(* Support-only disjunction and conjunction on two members, without
   the lists: allocation-free. *)
let or2 ctx a b =
  match (a, b) with
  | T, _ | _, T -> T
  | F, l | l, F -> l
  | L x, L y ->
      let z = Sat.Solver.new_var ctx.s in
      Sat.Solver.add_clause ctx.s [ -x; z ];
      Sat.Solver.add_clause ctx.s [ -y; z ];
      L z

let and2 ctx a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, l | l, T -> l
  | L x, L y ->
      let z = Sat.Solver.new_var ctx.s in
      Sat.Solver.add_clause ctx.s [ z; -x; -y ];
      L z

(* Two-sided (Tseitin) connectives for the condition — it appears under
   negation, so both directions are constrained. *)
let or_full ctx lits =
  let lits = List.filter (( <> ) F) lits in
  if List.exists (( = ) T) lits then T
  else
    match lits with
    | [] -> F
    | [ l ] -> l
    | _ ->
        let z = fresh ctx in
        List.iter (fun l -> clause ctx [ neg l; z ]) lits;
        clause ctx (neg z :: lits);
        z

let and_full ctx lits = neg (or_full ctx (List.map neg lits))

let assert_lit ctx l = clause ctx [ l ]

(* ------------------------------------------------------------------ *)
(* Symbolic relations                                                  *)
(* ------------------------------------------------------------------ *)

module Sym = struct
  (* A relation over [0, n) given by its projections: [T] on [must],
     [F] outside [may], and on a pair of [may ∖ must] the literal
     [lit x y], created when something first asks for it. *)
  type t = { n : int; may : Rel.t; must : Rel.t; lit : int -> int -> lit3 }

  let may a = a.may
  let must a = a.must

  let entry a x y =
    if not (Rel.mem x y a.may) then F
    else if Rel.mem x y a.must then T
    else a.lit x y

  let leaf (ctx : ctx) ~may ~must lit = { n = ctx.n; may; must; lit }

  (* no pair lies in may ∖ must *)
  let const ctx r = leaf ctx ~may:r ~must:r (fun _ _ -> assert false)

  (* An n × n literal table, allocated on the first demand; 0 marks an
     entry not yet created. *)
  let table n = lazy (Array.make (n * n) 0)

  (* [make x y] gives the literal of a [may ∖ must] pair, from entries
     of the operands; memoised. *)
  let derived (ctx : ctx) ~may ~must make =
    let tbl = table ctx.n in
    let lit x y =
      let tbl = Lazy.force tbl and i = (x * ctx.n) + y in
      match tbl.(i) with
      | 0 ->
          let l = make x y in
          (match l with L v -> tbl.(i) <- v | F | T -> ());
          l
      | v -> L v
    in
    leaf ctx ~may ~must lit

  let define (ctx : ctx) ~may ~must support =
    let tbl = table ctx.n in
    let rec a =
      {
        n = ctx.n;
        may;
        must;
        lit =
          (fun x y ->
            let tbl = Lazy.force tbl and i = (x * ctx.n) + y in
            match tbl.(i) with
            | 0 ->
                (* memoised before its clauses, which may ask for it *)
                let v = Sat.Solver.new_var ctx.s in
                tbl.(i) <- v;
                support a x y (L v);
                L v
            | v -> L v);
      }
    in
    a

  (* The chain is monotone, so each projection is the scalar operator
     on the operands' projections. *)
  let union ctx a b =
    derived ctx ~may:(Rel.union a.may b.may) ~must:(Rel.union a.must b.must)
      (fun x y -> or2 ctx (entry a x y) (entry b x y))

  let inter ctx a b =
    derived ctx ~may:(Rel.inter a.may b.may) ~must:(Rel.inter a.must b.must)
      (fun x y -> and2 ctx (entry a x y) (entry b x y))

  let inter_const a r =
    { a with may = Rel.inter a.may r; must = Rel.inter a.must r }

  let diff_const a r =
    { a with may = Rel.diff a.may r; must = Rel.diff a.must r }

  (* a ; b — disjunction over the middle events of row x of may(a) and
     column z of may(b). *)
  let seq ctx a b =
    let cols = lazy (Rel.inverse b.may) in
    derived ctx ~may:(Rel.seq a.may b.may) ~must:(Rel.seq a.must b.must)
      (fun x z ->
        let terms = ref [] in
        Rel.iter_row_inter
          (fun y -> terms := and2 ctx (entry a x y) (entry b y z) :: !terms)
          a.may x (Lazy.force cols) z;
        or_support ctx !terms)

  let inverse a =
    {
      a with
      may = Rel.inverse a.may;
      must = Rel.inverse a.must;
      lit = (fun x y -> a.lit y x);
    }

  (* Transitive closure with support-only reachability witnesses: the
     variable of t(x,z) gets a base clause from the edge (x,z) and a
     step clause t(x,y) ; a(y,z) for each middle event y of the
     may-closure, asking only for entries of row x.  y = x repeats the
     base clause and y = z is a tautology. *)
  let plus ctx a =
    let may = Rel.transitive_closure a.may in
    let cols = lazy (Rel.inverse a.may) in
    define ctx ~may ~must:(Rel.transitive_closure a.must) (fun t x z v ->
        clause ctx [ neg (entry a x z); v ];
        Rel.iter_row_inter
          (fun y ->
            if y <> x && y <> z then
              clause ctx [ neg (entry t x y); neg (entry a y z); v ])
          may x (Lazy.force cols) z)

  let id n = Rel.id_of_list (List.init n Fun.id)

  let opt a =
    let id = id a.n in
    { a with may = Rel.union a.may id; must = Rel.union a.must id }

  let star ctx a = opt (plus ctx a)

  let assert_irreflexive ctx a =
    for x = 0 to a.n - 1 do
      clause ctx [ neg (entry a x x) ]
    done

  (* acyclic a: no diagonal entry of the closure may hold.  The demand
     from t(x,x) stays inside x's strongly connected component of
     may(a).  A must-cycle is one empty clause, and a self-loop or an
     edge closing a must-path back is a false literal outright, left
     out of the closure. *)
  let assert_acyclic ctx a =
    let must_plus = Rel.transitive_closure a.must in
    if not (Rel.is_irreflexive must_plus) then clause ctx []
    else begin
      let back = Rel.union (Rel.inverse must_plus) (id a.n) in
      let implied = Rel.inter (Rel.diff a.may a.must) back in
      Rel.iter (fun x y -> clause ctx [ neg (a.lit x y) ]) implied;
      assert_irreflexive ctx (plus ctx (diff_const a implied))
    end

  let assert_empty ctx a =
    Rel.iter (fun x y -> clause ctx [ neg (entry a x y) ]) a.may
end

(* ------------------------------------------------------------------ *)
(* Per-structure encoding                                              *)
(* ------------------------------------------------------------------ *)

(* What an axioms callback sees: the solver context, a representative
   execution of the structure (witness empty — every *static* relation
   and event set of it is valid and physically shared with the decoded
   witness) and the three symbolic witness relations. *)
type enc = {
  ctx : ctx;
  rep : Execution.t;
  rf : Sym.t;
  co : Sym.t;
  fr : Sym.t;
}

type axioms = enc -> unit

(* One structure, encoded. *)
type encoded = {
  e : enc;
  sk : Execution.skeleton;
  rf_vars : (int * int * lit3) list list;
      (* per read, aligned with [sk_rf_choices]: the one-hot literals *)
}

(* sc per location — the coherence prefilter, and the native model's
   Scpv axiom — as the five coherence patterns over each po-loc pair
   (a, b), straight over the rf/co literals ([rf_vars] as in
   {!encoded}).  [co] is F on the diagonal and T out of the init write,
   which settles the cases where a pattern's writes coincide or one is
   the init write. *)
let assert_scpv ctx (sk : Execution.skeleton) po_loc (co : Sym.t) rf_vars =
  let writers = Array.make ctx.n [] in
  List.iter
    (function
      | (_, r, _) :: _ as lits ->
          writers.(r) <- List.map (fun (w, _, v) -> (w, v)) lits
      | [] -> ())
    rf_vars;
  let dir x = sk.Execution.sk_events.(x).Event.dir in
  let co = Sym.entry co in
  Rel.iter
    (fun a b ->
      match (dir a, dir b) with
      | Event.W, Event.W -> (* coWW *) clause ctx [ co a b ]
      | Event.R, Event.W ->
          (* coRW1 (w = b) and coRW2: a's write is co-before b *)
          List.iter (fun (w, v) -> clause ctx [ neg v; co w b ]) writers.(a)
      | Event.W, Event.R ->
          (* coWR: b reads a or a co-later write *)
          List.iter
            (fun (w, v) -> if w <> a then clause ctx [ neg v; co a w ])
            writers.(b)
      | Event.R, Event.R ->
          (* coRR: reads of two writes see them in co order *)
          List.iter
            (fun (w1, v1) ->
              List.iter
                (fun (w2, v2) ->
                  if w1 <> w2 then clause ctx [ neg v1; neg v2; co w1 w2 ])
                writers.(b))
            writers.(a)
      | _ -> ())
    po_loc

(* [sk] is not {!Execution.dead}: every read has a candidate writer. *)
let encode_structure ~scpv (sk : Execution.skeleton) =
  let rep = Execution.instantiate sk ~rf:Rel.empty ~co:Rel.empty in
  let n = Array.length sk.Execution.sk_events in
  let ctx = { s = Sat.Solver.create (); n } in
  (* the leaves' literal tables: the variable of each open pair *)
  let rf_tbl = Array.make (n * n) 0 and co_tbl = Array.make (n * n) 0 in
  let lit tbl x y = L tbl.((x * n) + y) in
  (* rf: one-hot per read *)
  let rf_vars =
    List.map
      (fun choices ->
        match choices with
        | [ (w, r) ] -> [ (w, r, T) ]
        | choices ->
            let lits =
              List.map
                (fun (w, r) ->
                  let v = Sat.Solver.new_var ctx.s in
                  rf_tbl.((w * n) + r) <- v;
                  (w, r, L v))
                choices
            in
            clause ctx (List.map (fun (_, _, v) -> v) lits);
            let rec at_most_one = function
              | [] -> ()
              | (_, _, v) :: rest ->
                  List.iter
                    (fun (_, _, v') -> clause ctx [ neg v; neg v' ])
                    rest;
                  at_most_one rest
            in
            at_most_one lits;
            lits)
      sk.Execution.sk_rf_choices
  in
  let rf =
    Sym.leaf ctx
      ~may:(Rel.of_list (List.concat sk.Execution.sk_rf_choices))
      ~must:
        (Rel.of_list
           (List.concat_map
              (function [ wr ] -> [ wr ] | _ -> [])
              sk.Execution.sk_rf_choices))
      (lit rf_tbl)
  in
  (* co: per-location pairwise order variables; the initialising write
     is first by construction, transitivity by clauses over triples *)
  let co_may = ref [] and co_must = ref [] in
  List.iter
    (fun (_x, init_id, ws) ->
      List.iter (fun w -> co_must := (init_id, w) :: !co_must) ws;
      let rec pairs = function
        | [] -> ()
        | w :: rest ->
            List.iter
              (fun w' ->
                let v = Sat.Solver.new_var ctx.s in
                co_tbl.((w * n) + w') <- v;
                co_tbl.((w' * n) + w) <- -v;
                co_may := (w, w') :: (w', w) :: !co_may)
              rest;
            pairs rest
      in
      pairs ws;
      (* transitivity: co(a,b) /\ co(b,c) -> co(a,c) forbids the
         3-cycle a b c, and each unordered triple has two cyclic
         orientations — one clause each *)
      let co = lit co_tbl in
      let cycle a b c =
        clause ctx [ neg (co a b); neg (co b c); neg (co c a) ]
      in
      let rec triples = function
        | [] -> ()
        | a :: rest ->
            let rec tail = function
              | [] -> ()
              | b :: rest' ->
                  List.iter
                    (fun c ->
                      cycle a b c;
                      cycle a c b)
                    rest';
                  tail rest'
            in
            tail rest;
            triples rest
      in
      triples ws)
    (Execution.co_writes sk);
  let co =
    Sym.leaf ctx
      ~may:(Rel.of_list (!co_must @ !co_may))
      ~must:(Rel.of_list !co_must) (lit co_tbl)
  in
  (* fr = rf^-1 ; co, exactly: co has no diagonal *)
  let fr = Sym.seq ctx (Sym.inverse rf) co in
  let e = { ctx; rep; rf; co; fr } in
  if scpv then assert_scpv ctx sk rep.Execution.po_loc co rf_vars;
  { e; sk; rf_vars }

(* ------------------------------------------------------------------ *)
(* Condition                                                           *)
(* ------------------------------------------------------------------ *)

(* Assert the residue of {!Execution.asserted_cond}, the gate all three
   engines share.  A [Final] atom holds iff one of its writes storing
   the value is co-maximal, i.e. every other write comes co-before it.
   Two-sided encoding — residues sit under negation. *)
let encode_cond (enc : encoded) cond =
  let { e; sk; _ } = enc in
  let ctx = e.ctx in
  let rec lit : Execution.cond3 -> lit3 = function
    | Known b -> if b then T else F
    | Final (ws, v) ->
        or_full ctx
          (List.filter_map
             (fun w ->
               if sk.Execution.sk_events.(w).Event.v <> v then None
               else
                 Some
                   (and_full ctx
                      (List.filter_map
                         (fun w' ->
                           if w' = w then None
                           else Some (Sym.entry e.co w' w))
                         ws)))
             ws)
    | Not3 c -> neg (lit c)
    | And3 (a, b) -> and_full ctx [ lit a; lit b ]
    | Or3 (a, b) -> or_full ctx [ lit a; lit b ]
  in
  assert_lit ctx (lit cond)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let decode (enc : encoded) =
  let { e; sk; rf_vars } = enc in
  let value = function
    | T -> true
    | F -> false
    | L l ->
        if l > 0 then Sat.Solver.value e.ctx.s l
        else not (Sat.Solver.value e.ctx.s (-l))
  in
  let rf =
    List.fold_left
      (fun acc lits ->
        match List.find_opt (fun (_, _, v) -> value v) lits with
        | Some (w, r, _) -> Rel.add w r acc
        | None -> raise (Spurious "sat: read with no chosen writer"))
      Rel.empty rf_vars
  in
  let orders =
    List.map
      (fun (x, _, ws) ->
        ( x,
          List.sort
            (fun a b ->
              if a = b then 0
              else if value (Sym.entry e.co a b) then -1
              else 1)
            ws ))
      (Execution.co_writes sk)
  in
  let co = Execution.co_of_orders sk orders in
  Execution.instantiate sk ~rf ~co

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let c_structures = Obs.Counter.make "solve.structures"
let c_conflicts = Obs.Counter.make "solve.conflicts"
let c_sat = Obs.Counter.make "solve.sat"
let c_unsat = Obs.Counter.make "solve.unsat"
let c_cond_refuted = Obs.Counter.make "solve.cond_refuted"
let c_encoded = Obs.Counter.make "solve.encoded"
let c_spurious = Obs.Counter.make "solve.spurious"
let c_propagations = Obs.Counter.make "solve.propagations"
let c_vars = Obs.Counter.make "solve.vars"
let c_clauses = Obs.Counter.make "solve.clauses"
let c_restarts = Obs.Counter.make "solve.restarts"
let h_learnt_len = Obs.Histogram.make "solve.learnt_len"
let h_dlevel = Obs.Histogram.make "solve.dlevel"

type solve_fn =
  ?budget:Budget.t ->
  ?explainer:(Execution.t -> Explain.t list) ->
  Litmus.Ast.t ->
  Check.result

let satisfies (test : Litmus.Ast.t) x =
  match test.Litmus.Ast.quant with
  | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> Execution.satisfies_cond x
  | Litmus.Ast.Q_forall -> not (Execution.satisfies_cond x)

let run_exn ?budget ~conflicts ~decisions ~axioms (module M : Check.MODEL)
    ?explainer (test : Litmus.Ast.t) : Check.result =
  (* Budget mapping: a conflict is the solver's unit of explored
     candidate space (counted against [max_candidates], probing the
     clock); a decision only probes the clock.  [Budget.Exceeded]
     propagates out of the solver through the callbacks. *)
  let on_conflict () =
    incr conflicts;
    Obs.Counter.incr c_conflicts;
    Option.iter
      (fun b ->
        Budget.count_candidate b;
        Budget.tick b)
      budget
  in
  let on_decision () =
    incr decisions;
    Option.iter Budget.tick budget
  in
  let sat_result verdict witness counterexample explanations =
    {
      Check.verdict;
      n_candidates = !conflicts;
      n_prefiltered = 0;
      n_consistent = (match witness with Some _ -> 1 | None -> 0);
      n_matching = (match witness with Some _ -> 1 | None -> 0);
      witness;
      outcomes =
        (match witness with
        | Some x -> [ (Execution.outcome x, true) ]
        | None -> []);
      counterexample;
      explanations;
      backend = Check.Sat;
      sat =
        Some
          {
            Check.conflicts = !conflicts;
            decisions = !decisions;
            fallback = false;
          };
    }
  in
  (* Solve one unrefuted structure that is not dead, [cond] its
     {!Execution.asserted_cond}, under a configuration; [`Sat x] decodes
     the model (re-validation is the caller's business). *)
  let solve_structure ~scpv ~with_axioms sk cond =
    let enc =
      Obs.with_span "solve.encode" (fun () ->
          let enc = encode_structure ~scpv sk in
          encode_cond enc cond;
          if with_axioms then
            Obs.with_span "solve.axioms" (fun () -> axioms enc.e);
          enc)
    in
    let s = enc.e.ctx.s in
    (* CNF size of the main pass only (the one with the axioms), so
       it covers the structures [solve.encoded] counts *)
    if with_axioms then begin
      Obs.Counter.add c_vars (Sat.Solver.nvars s);
      Obs.Counter.add c_clauses (Sat.Solver.nclauses s)
    end;
    (* CDCL shape, surfaced in obs_report's symbolic table: learned
       clause lengths and conflict decision levels as histograms,
       propagation volume as a counter (delta over this call, even
       when a budget trip aborts the search mid-way). *)
    let on_learnt len =
      Obs.Histogram.observe h_learnt_len (float_of_int len);
      Obs.Histogram.observe h_dlevel
        (float_of_int (Sat.Solver.decision_level s))
    in
    let on_restart () = Obs.Counter.incr c_restarts in
    let count_propagations () =
      Obs.Counter.add c_propagations
        (Sat.Solver.stats s).Sat.Solver.propagations
    in
    match
      Obs.with_span "solve.search" (fun () ->
          Fun.protect ~finally:count_propagations (fun () ->
              Sat.Solver.solve ~on_conflict ~on_decision ~on_learnt
                ~on_restart s))
    with
    | Sat.Solver.Unsat -> `Unsat
    | Sat.Solver.Sat ->
        `Sat (Obs.with_span "solve.decode" (fun () -> decode enc))
  in
  Obs.with_span ~item:test.Litmus.Ast.name "solve" (fun () ->
      let found = ref None in
      (* Structures the condition refutes are done here, unbuilt:
         encoding one would only end in the empty clause.  A dead one
         (a read with no candidate writer) is vacuously unsatisfiable,
         also unbuilt.  The rest are built, and retained for the
         forensic pass when an explainer will read them (re-running Sem
         would double-charge the budget). *)
      let seen = ref [] in
      (try
         Seq.iter
           (fun st ->
             Obs.Counter.incr c_structures;
             match Execution.asserted_cond st with
             | Known false ->
                 Obs.Counter.incr c_cond_refuted;
                 Obs.Counter.incr c_unsat
             | cond -> (
                 Obs.Counter.incr c_encoded;
                 if Execution.dead st then Obs.Counter.incr c_unsat
                 else
                   let sk = Execution.skeleton st in
                   if explainer <> None then seen := (sk, cond) :: !seen;
                   match
                     solve_structure ~scpv:true ~with_axioms:true sk cond
                   with
                   | `Unsat -> Obs.Counter.incr c_unsat
                   | `Sat x ->
                       Obs.Counter.incr c_sat;
                       found := Some x;
                       raise Exit))
           (Execution.structures ?budget test)
       with Exit -> ());
      match !found with
      | Some x ->
          (* Re-validate through the scalar path: the decoded witness
             must be coherent, consistent under the *scalar* model and
             must satisfy the condition.  Failure is an encoder or
             solver bug and a hard error — never a verdict. *)
          if not (Execution.coherent x) then begin
            Obs.Counter.incr c_spurious;
            raise (Spurious "sat: decoded witness is incoherent")
          end;
          if not (M.consistent x) then begin
            Obs.Counter.incr c_spurious;
            raise (Spurious "sat: decoded witness rejected by the scalar model")
          end;
          if not (satisfies test x) then begin
            Obs.Counter.incr c_spurious;
            raise (Spurious "sat: decoded witness misses the condition")
          end;
          sat_result Check.Allow (Some x) None []
      | None -> (
          (* Forbid.  With an explainer, find the candidate the
             explanations should talk about — prefer a coherent,
             condition-satisfying candidate (necessarily rejected by
             the model: the axioms are the only constraints dropped),
             falling back to an incoherent one (the class the scalar
             path's prefilter kills) — and run the scalar explainer on
             it.  Only unrefuted structures were retained: a refuted one
             has no condition-satisfying candidate, axioms or not. *)
          match explainer with
          | None -> sat_result Check.Forbid None None []
          | Some explain ->
              let rec first_sat ~scpv = function
                | [] -> None
                | (sk, cond) :: rest -> (
                    match solve_structure ~scpv ~with_axioms:false sk cond with
                    | `Sat x -> Some x
                    | `Unsat -> first_sat ~scpv rest)
              in
              let sks = List.rev !seen in
              let cex =
                match first_sat ~scpv:true sks with
                | Some x -> Some x
                | None -> first_sat ~scpv:false sks
              in
              (match cex with
              | Some x -> sat_result Check.Forbid None (Some x) (explain x)
              | None -> sat_result Check.Forbid None None [])))

let run ?budget ~axioms (module M : Check.MODEL) ?explainer
    (test : Litmus.Ast.t) : Check.result =
  let conflicts = ref 0 and decisions = ref 0 in
  let stats () =
    { Check.conflicts = !conflicts; decisions = !decisions; fallback = false }
  in
  match budget with
  | None -> run_exn ~conflicts ~decisions ~axioms (module M) ?explainer test
  | Some b -> (
      try
        run_exn ~budget:b ~conflicts ~decisions ~axioms (module M) ?explainer
          test
      with
      | Budget.Exceeded r ->
          Check.unknown ~budget:b ~backend:Check.Sat ~sat:(stats ())
            (Check.Budget_exceeded r)
      | Stack_overflow ->
          Check.unknown ~budget:b ~backend:Check.Sat ~sat:(stats ())
            (Check.Model_error Stack_overflow)
      | exn ->
          Check.unknown ~budget:b ~backend:Check.Sat ~sat:(stats ())
            (Check.Model_error exn))

let make ~axioms (module M : Check.MODEL) : solve_fn =
 fun ?budget ?explainer test -> run ?budget ~axioms (module M) ?explainer test
