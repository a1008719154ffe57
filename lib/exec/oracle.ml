(* A checking oracle: one first-class value bundling every engine a
   model ships — the scalar model (always), the bit-plane batched
   evaluator (optional) and the symbolic SAT engine (optional) — so
   engine selection is one [backend] switch at the call site instead of
   ad-hoc (model, batch_fn) pairing threaded through every layer.

   Oracles are constructed once, next to the model they wrap
   ([Lkmm.oracle], [Cat.to_oracle], the operational simulators'
   scalar-only wrappings) and passed as a single value through the
   harness (Runner, Pool, Serve, Campaign, Sweep) and the CLIs. *)

type backend_request = Check.backend

type t = {
  name : string;  (* the model's name, stable across engines *)
  model : Budget.t option -> (module Check.MODEL);
  batch : (Budget.t option -> Check.batch_fn) option;
  solve : Solve.solve_fn option;
}

let c_fallback = Obs.Counter.make "sat.fallback"

let scalar name model = { name; model; batch = None; solve = None }

(* Most scalar models are budget-oblivious modules; wrap them without
   ceremony, taking the oracle's name from the model's own. *)
let of_model (module M : Check.MODEL) =
  scalar M.name (fun _ -> (module M : Check.MODEL))

let make ~name ~model ?batch ?solve () = { name; model; batch; solve }

let name t = t.name
let model t ?budget () = t.model budget

(* The engine every default names: the scalar enumerator.  Behind the
   condition gate a flush holds few candidates, and the closure-free
   [Rel] kernels decide them one at a time faster than a bit-plane pass
   decides the flush; the batched engine stays as a cross-check. *)
let default_backend = Check.Enum

(* The model an oracle contributes to {!Check.run} under an enumerative
   request: its batched engine under [Batch], its scalar one otherwise.
   A [Sat] request that reaches enumeration runs the default engine. *)
let check_model ?budget ?explainer ~backend t =
  let backend = if backend = Check.Sat then default_backend else backend in
  Check.model ?explainer
    ?batch:
      (match backend with
      | Check.Batch -> Option.map (fun mk -> mk budget) t.batch
      | Check.Enum | Check.Sat -> None)
    (t.model budget)

(* Every oracle of [entries] on one test, results in order.  An
   enumerative request is one {!Check.run} over all of them.  Under
   [Sat], an oracle with a solver solves on its own, and the others
   share one enumeration on the default engine, each flagged as a
   fallback.  In a call of several oracles each engine run counts its
   candidates under its own {!Budget.fork}, so its caps trip where they
   would alone. *)
let run_entries ?budget ~backend entries test =
  match backend with
  | Check.Enum | Check.Batch ->
      Check.run ?budget
        (List.map
           (fun (t, explainer) -> check_model ?budget ?explainer ~backend t)
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
                    (fun (t, explainer) ->
                      check_model ?budget ?explainer ~backend t)
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

(* Model-allowed outcomes, through the oracle's enumerative engines
   (the symbolic engine answers the per-test existential question, not
   the all-outcomes one; [Sat] requests degrade to the default engine). *)
let allowed_outcomes ?budget ?(backend = default_backend) t test =
  let { Check.scalar; batch; _ } = check_model ?budget ~backend t in
  Check.allowed_outcomes ?budget ?batch scalar test
