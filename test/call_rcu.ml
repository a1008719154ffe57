(* The call_rcu deferred-free program shared by test_kir and test_hwsim.
   A reader's RSCS reads x then y; the updater writes x, then frees y
   (writes it) through call_rcu when [deferred], or at once otherwise;
   it then waits in rcu_barrier and reads y back into "done".  [second]
   queues a second callback (writing z) right behind the first, so two
   callbacks are pending at once. *)

let program ?(second = false) ~deferred () =
  let free x = Kir.Write (Litmus.Ast.W_once, Kir.Var x, Kir.Int 1) in
  {
    Kir.name = "call-rcu-deferred-free";
    init = [];
    arrays = [];
    addr_table = [];
    threads =
      [
        [
          Kir.Fence Litmus.Ast.F_rcu_lock;
          Kir.Read (Litmus.Ast.R_once, "r1", Kir.Var "x");
          Kir.Read (Litmus.Ast.R_once, "r2", Kir.Var "y");
          Kir.Fence Litmus.Ast.F_rcu_unlock;
        ];
        [ free "x" ]
        @ (if deferred then [ Kir.Call_rcu [ free "y" ] ] else [ free "y" ])
        @ (if second then [ Kir.Call_rcu [ free "z" ] ] else [])
        @ [ Kir.Rcu_barrier; Kir.Read (Litmus.Ast.R_once, "done", Kir.Var "y") ];
      ];
  }
