(* Reference definitions of what the enumeration decides before it
   builds a structure, over the built skeleton.  test_rel_dense checks
   the library's versions against them. *)

module Event = Exec.Event

let asserted_cond (sk : Exec.skeleton) : Exec.cond3 =
  let test = sk.sk_test in
  let final_is x v : Exec.cond3 =
    match
      List.find_opt (fun (x', _, _) -> String.equal x x') (Exec.co_writes sk)
    with
    | None | Some (_, _, []) -> Known (Litmus.Ast.init_value test x = v)
    | Some (_, _, ws) ->
        if not (List.exists (fun w -> sk.sk_events.(w).Event.v = v) ws) then
          Known false
        else if List.compare_length_with ws 1 = 0 then Known true
        else Final (ws, v)
  in
  let not3 : Exec.cond3 -> Exec.cond3 = function
    | Known b -> Known (not b)
    | c -> Not3 c
  in
  let and3 (a : Exec.cond3) (b : Exec.cond3) : Exec.cond3 =
    match (a, b) with
    | Known false, _ | _, Known false -> Known false
    | Known true, c | c, Known true -> c
    | a, b -> And3 (a, b)
  in
  let or3 (a : Exec.cond3) (b : Exec.cond3) : Exec.cond3 =
    match (a, b) with
    | Known true, _ | _, Known true -> Known true
    | Known false, c | c, Known false -> c
    | a, b -> Or3 (a, b)
  in
  let atom : Litmus.Ast.cond_atom -> Exec.cond3 = function
    | Reg_eq (tid, r, cv) ->
        Known
          (Exec.final_reg sk.sk_final_regs tid r
          = Litmus.Ast.cvalue_to_int test cv)
    | Mem_eq (x, cv) -> final_is x (Litmus.Ast.cvalue_to_int test cv)
  in
  let rec go : Litmus.Ast.cond -> Exec.cond3 = function
    | Atom a -> atom a
    | Not c -> not3 (go c)
    | And (a, b) -> and3 (go a) (go b)
    | Or (a, b) -> or3 (go a) (go b)
    | Ctrue -> Known true
  in
  let cond = go test.cond in
  match test.quant with
  | Q_exists | Q_not_exists -> cond
  | Q_forall -> not3 cond

let dead (sk : Exec.skeleton) = List.mem [] sk.sk_rf_choices

let claim (sk : Exec.skeleton) =
  let product f l =
    List.fold_left (fun acc x -> Exec.Budget.sat_mul acc (f x)) 1 l
  in
  Exec.Budget.sat_mul
    (product List.length sk.sk_rf_choices)
    (product
       (fun (_, _, ws) -> Exec.Budget.sat_fact (List.length ws))
       (Exec.co_writes sk))
