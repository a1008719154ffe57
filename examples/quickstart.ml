(* Quickstart: parse a litmus test, run it against the executable LK model,
   and read the verdict — the message-passing idiom of the paper's
   Figure 1.

   Run with:  dune exec examples/quickstart.exe *)

let mp_unfenced =
  {|C MP
{ x=0; y=0; }

P0(int *x, int *y) {
  WRITE_ONCE(x, 1);
  WRITE_ONCE(y, 1);
}

P1(int *x, int *y) {
  int r1 = READ_ONCE(y);
  int r2 = READ_ONCE(x);
}

exists (1:r1=1 /\ 1:r2=0)
|}

let mp_fenced =
  {|C MP+wmb+rmb
{ x=0; y=0; }

P0(int *x, int *y) {
  WRITE_ONCE(x, 1);
  smp_wmb();
  WRITE_ONCE(y, 1);
}

P1(int *x, int *y) {
  int r1 = READ_ONCE(y);
  smp_rmb();
  int r2 = READ_ONCE(x);
}

exists (1:r1=1 /\ 1:r2=0)
|}

let check source =
  let test = Litmus.parse source in
  let result = Lkmm.check test in
  Fmt.pr "%s: %a  (%d candidate executions, %d consistent)@."
    test.Litmus.Ast.name Exec.Check.pp_verdict result.Exec.Check.verdict
    result.Exec.Check.n_candidates result.Exec.Check.n_consistent;
  result

let () =
  Fmt.pr "== Message passing without fences: the weak outcome is allowed ==@.";
  let r = check mp_unfenced in
  List.iter
    (fun (o, m) ->
      Fmt.pr "   outcome %a%s@." Exec.pp_outcome o
        (if m then "   <- the weak outcome" else ""))
    r.Exec.Check.outcomes;

  Fmt.pr "@.== With smp_wmb / smp_rmb (Figures 1 and 2): forbidden ==@.";
  ignore (check mp_fenced);
  Fmt.pr "%a@." Lkmm.Explain.pp_test_verdict (Litmus.parse mp_fenced);

  (* The same model is executable from its cat source, like herd does:
     [Cat.to_oracle] packages it for the same checker. *)
  Fmt.pr "== The same verdicts from the cat-interpreted model (lk.cat) ==@.";
  let lk_cat = Cat.to_oracle ~name:"LK(cat)" (Lazy.force Cat.lk) in
  let cat_result = Exec.Oracle.run lk_cat (Litmus.parse mp_fenced) in
  Fmt.pr "MP+wmb+rmb under lk.cat: %a@." Exec.Check.pp_verdict
    cat_result.Exec.Check.verdict
