(* A checking oracle: one first-class value bundling every engine a
   model ships — the model the enumerator decides candidates with
   (always) and the symbolic SAT engine (optional) — so engine
   selection is one [backend] switch at the call site.

   Oracles are constructed once, next to the model they wrap
   ([Lkmm.oracle], [Cat.to_oracle], the operational simulators'
   scalar-only wrappings) and passed as a single value through the
   harness (Runner, Pool, Serve, Campaign, Sweep) and the CLIs. *)

type backend_request = Check.backend

type t = {
  name : string;  (* the model's name, stable across engines *)
  model : Budget.t option -> (module Check.MODEL);
  batch : (Budget.t option -> Check.batch_fn) option;
      (* always [None]: kept for lkbench's trace replay until it reads
         lib/obs *)
  solve : Solve.solve_fn option;
}

let c_fallback = Obs.Counter.make "sat.fallback"

let scalar name model = { name; model; batch = None; solve = None }

(* Most scalar models are budget-oblivious modules; wrap them without
   ceremony, taking the oracle's name from the model's own. *)
let of_model (module M : Check.MODEL) =
  scalar M.name (fun _ -> (module M : Check.MODEL))

let make ~name ~model ?solve () = { name; model; batch = None; solve }

let name t = t.name
let model t ?budget () = t.model budget

(* The engine every default names: the enumerator. *)
let default_backend = Check.Enum

(* The model an oracle contributes to {!Check.run}. *)
let check_model ?budget ?explainer t = Check.model ?explainer (t.model budget)

(* Every oracle of [entries] on one test, results in order.  An
   enumerative request is one {!Check.run} over all of them.  Under
   [Sat], an oracle with a solver solves on its own, and the others
   share one enumeration on the default engine, each flagged as a
   fallback.  In a call of several oracles each engine run counts its
   candidates under its own {!Budget.fork}, so its caps trip where they
   would alone. *)
let run_entries ?budget ~backend entries test =
  match backend with
  | Check.Enum ->
      Check.run ?budget
        (List.map
           (fun (t, explainer) -> check_model ?budget ?explainer t)
           entries)
        test
  | Check.Sat ->
      let budget () =
        match entries with
        | [ _ ] -> budget
        | _ -> Option.map Budget.fork budget
      in
      let shared =
        match List.filter (fun (t, _) -> Option.is_none t.solve) entries with
        | [] -> ref []
        | enumerated ->
            let budget = budget () in
            ref
              (Check.run ?budget
                 (List.map
                    (fun (t, explainer) -> check_model ?budget ?explainer t)
                    enumerated)
                 test)
      in
      List.map
        (fun (t, explainer) ->
          match t.solve with
          | Some solve -> solve ?budget:(budget ()) ?explainer test
          | None ->
              (* requested symbolically, shipped enumeratively: fall
                 back, loudly enough for reports to show it *)
              let r = List.hd !shared in
              shared := List.tl !shared;
              Obs.Counter.incr c_fallback;
              {
                r with
                Check.sat =
                  Some { Check.conflicts = 0; decisions = 0; fallback = true };
              })
        entries

let run ?budget ?explainer ?(backend = default_backend) t test =
  List.hd (run_entries ?budget ~backend [ (t, explainer) ] test)

let run_all ?budget ?(backend = default_backend) ts test =
  run_entries ?budget ~backend (List.map (fun t -> (t, None)) ts) test

(* Model-allowed outcomes, through the enumerator on every backend (the
   symbolic engine answers the per-test existential question, not the
   all-outcomes one). *)
let allowed_outcomes ?budget t test =
  Check.allowed_outcomes ?budget (t.model budget) test
