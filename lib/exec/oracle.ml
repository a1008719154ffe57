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

let run ?budget ?explainer ?(backend = Check.Batch) t test =
  let enumerate batch =
    Check.run ?budget ?batch ?explainer (t.model budget) test
  in
  match backend with
  | Check.Sat -> (
      match t.solve with
      | Some solve -> solve ?budget ?explainer test
      | None ->
          (* requested symbolically, shipped enumeratively: fall back,
             loudly enough for reports to show it *)
          Obs.Counter.incr c_fallback;
          {
            (enumerate None) with
            Check.sat =
              Some { Check.conflicts = 0; decisions = 0; fallback = true };
          })
  | Check.Batch -> enumerate (Option.map (fun mk -> mk budget) t.batch)
  | Check.Enum -> enumerate None

(* Model-allowed outcomes, through the oracle's enumerative engines
   (the symbolic engine answers the per-test existential question, not
   the all-outcomes one; [Sat] requests degrade to the batched path). *)
let allowed_outcomes ?budget ?(backend = Check.Batch) t test =
  let batch =
    match backend with
    | Check.Enum -> None
    | Check.Batch | Check.Sat -> Option.map (fun mk -> mk budget) t.batch
  in
  Check.allowed_outcomes ?budget ?batch (t.model budget) test
