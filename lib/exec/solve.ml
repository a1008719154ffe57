(* The symbolic checking backend: one event structure's candidate space
   rendered as CNF and decided by the CDCL core in [lib/sat], instead
   of enumerated.

   Encoding, per {!Execution.skeleton}:
   - rf: one-hot choice variables per read over its candidate writers;
   - co: per-location boolean order variables [before(w,w')] with
     antisymmetry by literal sign, totality by construction, and
     transitivity as one clause per cyclic orientation of each
     unordered triple of writes (forbidding that 3-cycle);
   - fr: derived, [fr(r,w') <- rf(w,r) /\ co(w,w')];
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
     {!Sym} combinators (native LKMM: [Lkmm.Symbolic]).

   None of it is built for a structure the condition refutes: the
   condition is first evaluated over the skeleton's constants in
   three-valued logic ({!asserted_cond}), and a structure whose
   asserted polarity is statically false is unsatisfiable outright —
   the case that would otherwise end in the empty clause.

   Every derived relation of the LK chain is *monotone* in rf and co
   (nothing negates a dynamic relation — only static relations are
   subtracted or intersected), so auxiliary variables carry one-sided
   "support" clauses only: components true force the derived entry
   true, making every auxiliary at least its least fixpoint in any
   model.  The axioms are all negative (acyclicity, irreflexivity,
   emptiness), so deciding them against these over-approximations is
   exact — a real violation forces the asserted-false literal true, and
   a genuinely consistent witness extends to a model by valuing every
   auxiliary exactly at its least fixpoint.  No refinement loop is
   needed.

   Acyclicity of the model's relations (hb, pb) is encoded through
   reachability witnesses — transitive-closure variables restricted,
   via {!Rel}'s dense-bitset closures, to pairs with a may-path back
   (the strongly-connected cycle core); pairs with no may-reachability
   get no variable at all, and edges closing a must-path are asserted
   false up front (closure-based unreachability and implied-literal
   preprocessing).

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

(* Support-only conjunction: forced true when every member is. *)
let and_support ctx lits =
  if List.exists (function F -> true | T | L _ -> false) lits then F
  else
    match List.filter (function T -> false | F | L _ -> true) lits with
    | [] -> T
    | [ l ] -> l
    | lits ->
        let z = fresh ctx in
        clause ctx (z :: List.map neg lits);
        z

(* [or_support]/[and_support] on two members, without the lists: the
   same variables and clauses, allocation-free. *)
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
  type t = lit3 array array

  let make n = Array.make_matrix n n F
  let entry (a : t) x y = a.(x).(y)

  let const ctx r =
    let a = make ctx.n in
    Rel.iter (fun x y -> a.(x).(y) <- T) r;
    a

  (* Projections: the pairs that may hold in some assignment, and the
     pairs that hold in every assignment.  {!Rel}'s dense bitsets then
     run the closure-based preprocessing on these. *)
  let may_of (a : t) =
    Rel.init (Array.length a) (fun x y ->
        match a.(x).(y) with F -> false | T | L _ -> true)

  let must_of (a : t) =
    Rel.init (Array.length a) (fun x y ->
        match a.(x).(y) with T -> true | F | L _ -> false)

  let union ctx (a : t) (b : t) : t =
    Array.init ctx.n (fun x ->
        Array.init ctx.n (fun y -> or2 ctx a.(x).(y) b.(x).(y)))

  let inter ctx (a : t) (b : t) : t =
    Array.init ctx.n (fun x ->
        Array.init ctx.n (fun y -> and2 ctx a.(x).(y) b.(x).(y)))

  let inter_const (a : t) r : t =
    Array.mapi
      (fun x row -> Array.mapi (fun y e -> if Rel.mem x y r then e else F) row)
      a

  let diff_const (a : t) r : t =
    Array.mapi
      (fun x row -> Array.mapi (fun y e -> if Rel.mem x y r then F else e) row)
      a

  (* a ; b — disjunction over middle events of pairwise conjunctions. *)
  let seq ctx (a : t) (b : t) : t =
    let n = ctx.n in
    let terms = Array.make_matrix n n [] in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        match a.(x).(y) with
        | F -> ()
        | axy ->
            for z = 0 to n - 1 do
              match b.(y).(z) with
              | F -> ()
              | byz -> terms.(x).(z) <- and2 ctx axy byz :: terms.(x).(z)
            done
      done
    done;
    Array.init n (fun x -> Array.init n (fun z -> or_support ctx terms.(x).(z)))

  let inverse (a : t) : t =
    let n = Array.length a in
    Array.init n (fun x -> Array.init n (fun y -> a.(y).(x)))

  (* Transitive closure with support-only reachability witnesses,
     restricted to the may-closure (unreachable pairs stay [F] and get
     no variable); pairs already connected by must-edges alone are [T]
     outright. *)
  let plus ctx (a : t) : t =
    let may = may_of a and must = must_of a in
    let may_plus = Rel.transitive_closure may in
    let must_plus = Rel.transitive_closure must in
    let r = make ctx.n in
    Rel.iter
      (fun x y -> r.(x).(y) <- (if Rel.mem x y must_plus then T else fresh ctx))
      may_plus;
    (* base: an edge forces its closure entry *)
    Array.iteri
      (fun x row ->
        Array.iteri
          (fun y e ->
            match (e, r.(x).(y)) with
            | F, _ | _, T -> ()
            | e, t -> clause ctx [ neg e; t ])
          row)
      a;
    (* step: t(x,y) ; edge(y,z) forces t(x,z) *)
    Rel.iter
      (fun x y ->
        Array.iteri
          (fun z e ->
            if e <> F && r.(x).(z) <> T then
              clause ctx [ neg r.(x).(y); neg e; r.(x).(z) ])
          a.(y))
      may_plus;
    r

  let opt (a : t) : t =
    let b = Array.map Array.copy a in
    for x = 0 to Array.length b - 1 do
      b.(x).(x) <- T
    done;
    b

  let star ctx (a : t) : t = opt (plus ctx a)

  let is_static_empty (a : t) = Array.for_all (Array.for_all (( = ) F)) a

  (* acyclic a: no diagonal entry of the closure may hold.  Preprocessed
     on the dense-bitset projections — a must-cycle kills the instance
     outright, an edge whose endpoints already close a must-path is an
     implied false literal, and closure variables are introduced only
     for edges with a may-path back (edges with no return path cannot
     lie on any cycle and are dropped before the closure is built). *)
  let assert_acyclic ctx (a : t) =
    let may = may_of a in
    if not (Rel.is_empty may) then begin
      let must_plus = Rel.transitive_closure (must_of a) in
      if not (Rel.is_irreflexive must_plus) then clause ctx []
      else begin
        let may_plus = Rel.transitive_closure may in
        (* self-loops can never be allowed *)
        for x = 0 to ctx.n - 1 do
          match a.(x).(x) with F -> () | e -> clause ctx [ neg e ]
        done;
        (* implied literals: an edge closing a must-path back is false *)
        Array.iteri
          (fun x row ->
            Array.iteri
              (fun y e ->
                match e with
                | L _ when x <> y && Rel.mem y x must_plus ->
                    clause ctx [ neg e ]
                | _ -> ())
              row)
          a;
        (* cycle core: keep an edge iff a may return path exists *)
        let core =
          Array.init ctx.n (fun x ->
              Array.init ctx.n (fun y ->
                  if x <> y && Rel.mem y x may_plus then a.(x).(y) else F))
        in
        if not (is_static_empty core) then begin
          let t = plus ctx core in
          for x = 0 to ctx.n - 1 do
            match t.(x).(x) with F -> () | e -> clause ctx [ neg e ]
          done
        end
      end
    end

  let assert_irreflexive ctx (a : t) =
    for x = 0 to ctx.n - 1 do
      match a.(x).(x) with F -> () | e -> clause ctx [ neg e ]
    done

  let assert_empty ctx (a : t) =
    Array.iter (Array.iter (function F -> () | e -> clause ctx [ neg e ])) a
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

(* One structure, encoded.  [None] when some read has no candidate
   writer: the structure contributes zero candidates and is vacuously
   unsatisfiable. *)
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
  Rel.iter
    (fun a b ->
      match (dir a, dir b) with
      | Event.W, Event.W -> (* coWW *) clause ctx [ co.(a).(b) ]
      | Event.R, Event.W ->
          (* coRW1 (w = b) and coRW2: a's write is co-before b *)
          List.iter (fun (w, v) -> clause ctx [ neg v; co.(w).(b) ]) writers.(a)
      | Event.W, Event.R ->
          (* coWR: b reads a or a co-later write *)
          List.iter
            (fun (w, v) -> if w <> a then clause ctx [ neg v; co.(a).(w) ])
            writers.(b)
      | Event.R, Event.R ->
          (* coRR: reads of two writes see them in co order *)
          List.iter
            (fun (w1, v1) ->
              List.iter
                (fun (w2, v2) ->
                  if w1 <> w2 then clause ctx [ neg v1; neg v2; co.(w1).(w2) ])
                writers.(b))
            writers.(a)
      | _ -> ())
    po_loc

let encode_structure ~scpv (sk : Execution.skeleton) =
  if List.exists (( = ) []) sk.Execution.sk_rf_choices then None
  else begin
    let rep = Execution.instantiate sk ~rf:Rel.empty ~co:Rel.empty in
    let n = Array.length sk.Execution.sk_events in
    let ctx = { s = Sat.Solver.create (); n } in
    (* rf: one-hot per read *)
    let rf = Sym.make n in
    let rf_vars =
      List.map
        (fun choices ->
          match choices with
          | [ (w, r) ] ->
              rf.(w).(r) <- T;
              [ (w, r, T) ]
          | choices ->
              let lits =
                List.map
                  (fun (w, r) ->
                    let v = fresh ctx in
                    rf.(w).(r) <- v;
                    (w, r, v))
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
    (* co: per-location pairwise order variables; the initialising write
       is first by construction, transitivity by clauses over triples *)
    let co = Sym.make n in
    List.iter
      (fun (_x, init_id, ws) ->
        List.iter (fun w -> co.(init_id).(w) <- T) ws;
        let rec pairs = function
          | [] -> ()
          | w :: rest ->
              List.iter
                (fun w' ->
                  let v = fresh ctx in
                  co.(w).(w') <- v;
                  co.(w').(w) <- neg v)
                rest;
              pairs rest
        in
        pairs ws;
        (* transitivity: co(a,b) /\ co(b,c) -> co(a,c) forbids the
           3-cycle a b c, and each unordered triple has two cyclic
           orientations — one clause each *)
        let cycle a b c =
          clause ctx [ neg co.(a).(b); neg co.(b).(c); neg co.(c).(a) ]
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
      sk.Execution.sk_co_writes;
    (* fr: rf^-1 ; co, per read over its candidate writers *)
    let fr = Sym.make n in
    List.iter
      (fun choices ->
        match choices with
        | [] -> ()
        | (_, r) :: _ ->
            for w' = 0 to n - 1 do
              let terms =
                List.filter_map
                  (fun (w, _) ->
                    if co.(w).(w') = F then None
                    else Some (and_support ctx [ rf.(w).(r); co.(w).(w') ]))
                  choices
              in
              fr.(r).(w') <- or_support ctx terms
            done)
      sk.Execution.sk_rf_choices;
    let e = { ctx; rep; rf; co; fr } in
    if scpv then assert_scpv ctx sk rep.Execution.po_loc co rf_vars;
    Some { e; sk; rf_vars }
  end

(* ------------------------------------------------------------------ *)
(* Condition                                                           *)
(* ------------------------------------------------------------------ *)

(* The condition over one skeleton, in three-valued logic.  The
   skeleton fixes every register value (an unset register reads 0) and
   much of the final memory: a location with no non-init write keeps
   its initial value, a value no write stores is never final, and a
   lone write is co-last.  [Known b] is a statically decided formula;
   what stays open is a residue over [Final] atoms, which only the
   coherence order decides. *)
type cond3 =
  | Known of bool
  | Final of int list * int
      (* some write of [ws] (a location's non-init writes, at least two)
         storing [v] is co-maximal *)
  | Not3 of cond3
  | And3 of cond3 * cond3
  | Or3 of cond3 * cond3

let not3 = function Known b -> Known (not b) | c -> Not3 c

let and3 a b =
  match (a, b) with
  | Known false, _ | _, Known false -> Known false
  | Known true, c | c, Known true -> c
  | a, b -> And3 (a, b)

let or3 a b =
  match (a, b) with
  | Known true, _ | _, Known true -> Known true
  | Known false, c | c, Known false -> c
  | a, b -> Or3 (a, b)

(* The polarity the encoder asserts — the condition for [exists] and
   [~exists] (both ask whether it is observable), its negation for
   [forall] — evaluated over the skeleton's constants.  [Known false]
   refutes the structure before anything is encoded. *)
let asserted_cond (sk : Execution.skeleton) =
  let test = sk.Execution.sk_test in
  let final_is x v =
    match
      List.find_opt
        (fun (x', _, _) -> String.equal x x')
        sk.Execution.sk_co_writes
    with
    | None | Some (_, _, []) -> Known (Litmus.Ast.init_value test x = v)
    | Some (_, _, ws) ->
        (* the init write is co-first, so never final here *)
        if
          not
            (List.exists (fun w -> sk.Execution.sk_events.(w).Event.v = v) ws)
        then Known false
        else if List.compare_length_with ws 1 = 0 then Known true
        else Final (ws, v)
  in
  let atom = function
    | Litmus.Ast.Reg_eq (tid, r, cv) ->
        let v =
          List.find_map
            (fun (tid', r', v) -> if tid = tid' && r = r' then Some v else None)
            sk.Execution.sk_final_regs
        in
        Known (Option.value ~default:0 v = Litmus.Ast.cvalue_to_int test cv)
    | Litmus.Ast.Mem_eq (x, cv) ->
        final_is x (Litmus.Ast.cvalue_to_int test cv)
  in
  let rec go = function
    | Litmus.Ast.Atom a -> atom a
    | Litmus.Ast.Not c -> not3 (go c)
    | Litmus.Ast.And (a, b) -> and3 (go a) (go b)
    | Litmus.Ast.Or (a, b) -> or3 (go a) (go b)
    | Litmus.Ast.Ctrue -> Known true
  in
  let cond = go test.Litmus.Ast.cond in
  match test.Litmus.Ast.quant with
  | Litmus.Ast.Q_exists | Litmus.Ast.Q_not_exists -> cond
  | Litmus.Ast.Q_forall -> not3 cond

(* Assert the residue of {!asserted_cond}.  A [Final] atom holds iff
   one of its writes storing the value is co-maximal, i.e. every other
   write comes co-before it.  Two-sided encoding — residues sit under
   negation. *)
let encode_cond (enc : encoded) cond =
  let { e; sk; _ } = enc in
  let ctx = e.ctx in
  let rec lit = function
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
                           if w' = w then None else Some e.co.(w').(w))
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
              if a = b then 0 else if value e.co.(a).(b) then -1 else 1)
            ws ))
      sk.Execution.sk_co_writes
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
  (* Solve one unrefuted structure, [cond] its {!asserted_cond}, under
     a configuration; [`Sat x] decodes the model (re-validation is the
     caller's business). *)
  let solve_structure ~scpv ~with_axioms sk cond =
    match
      Obs.with_span "solve.encode" (fun () ->
          Option.map
            (fun enc ->
              encode_cond enc cond;
              if with_axioms then axioms enc.e;
              enc)
            (encode_structure ~scpv sk))
    with
    | None -> `Unsat
    | Some enc -> (
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
            `Sat (Obs.with_span "solve.decode" (fun () -> decode enc)))
  in
  Obs.with_span ~item:test.Litmus.Ast.name "solve" (fun () ->
      let found = ref None in
      (* Structures the condition refutes are done here: encoding one
         would only end in the empty clause.  The rest are retained for
         the forensic pass when an explainer will read them (re-running
         Sem would double-charge the budget). *)
      let seen = ref [] in
      (try
         Seq.iter
           (fun sk ->
             Obs.Counter.incr c_structures;
             match asserted_cond sk with
             | Known false ->
                 Obs.Counter.incr c_cond_refuted;
                 Obs.Counter.incr c_unsat
             | cond -> (
                 Obs.Counter.incr c_encoded;
                 if explainer <> None then seen := (sk, cond) :: !seen;
                 match solve_structure ~scpv:true ~with_axioms:true sk cond with
                 | `Unsat -> Obs.Counter.incr c_unsat
                 | `Sat x ->
                     Obs.Counter.incr c_sat;
                     found := Some x;
                     raise Exit))
           (Execution.skeletons ?budget test)
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
