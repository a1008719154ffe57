(* The point of an executable model (Section 1.1): experiment with it.
   Here we edit lk.cat textually and watch verdicts move:

   1. a "no-Alpha" kernel: Section 7 notes smp_read_barrier_depends exists
      exclusively for Alpha's sake; if the kernel dropped Alpha, read-read
      address dependencies would order unconditionally
      (strong-rrdep = rrdep^+), and MP+wmb+addr would flip to Forbidden —
      exactly what happened upstream when READ_ONCE absorbed the barrier;

   2. a C11-flavoured weakening: drop control dependencies from rwdep and
      LB+ctrl+mb flips to Allowed — the paper's Figure 4 discrepancy,
      recreated inside the LK model itself.

   Run with:  dune exec examples/custom_model.exe *)

(* replace the first occurrence of [what] in [src] *)
let replace ~what ~with_ src =
  let rec go acc rest =
    let wl = String.length what in
    let rl = String.length rest in
    if rl < wl then acc ^ rest
    else if String.sub rest 0 wl = what then
      acc ^ with_ ^ String.sub rest wl (rl - wl)
    else go (acc ^ String.make 1 rest.[0]) (String.sub rest 1 (rl - 1))
  in
  go "" src

let verdict model test =
  Exec.Check.verdict_to_string
    (Exec.Oracle.run (Cat.to_oracle ~name:"custom" model) test)
      .Exec.Check.verdict

let battery name = Harness.Battery.test_of (Harness.Battery.find name)

let () =
  let lk = Cat.parse Cat.Stdmodels.lk in

  Fmt.pr "== 1. A kernel without Alpha ==@.";
  let no_alpha_src =
    replace ~what:"let strong-rrdep = rrdep^+ & rb-dep"
      ~with_:"let strong-rrdep = rrdep^+" Cat.Stdmodels.lk
  in
  let no_alpha = Cat.parse no_alpha_src in
  List.iter
    (fun name ->
      let t = battery name in
      Fmt.pr "%-20s LK:%-7s no-Alpha-LK:%s@." name (verdict lk t)
        (verdict no_alpha t))
    [ "MP+wmb+addr"; "MP+wmb+rcu-deref"; "MP+wmb+rmb" ];
  Fmt.pr
    "(dropping the rb-dep restriction makes the plain address dependency \
     order reads, as on every non-Alpha architecture)@.";

  Fmt.pr "@.== 2. Dropping control dependencies (C11-style) ==@.";
  let no_ctrl_src =
    replace ~what:"let rwdep = (dep | ctrl) & (R * W)"
      ~with_:"let rwdep = dep & (R * W)" Cat.Stdmodels.lk
  in
  let no_ctrl = Cat.parse no_ctrl_src in
  List.iter
    (fun name ->
      let t = battery name in
      Fmt.pr "%-20s LK:%-7s no-ctrl-LK:%-7s C11:%s@." name (verdict lk t)
        (verdict no_ctrl t)
        (Exec.Check.verdict_to_string
           (Exec.Oracle.run (Exec.Oracle.of_model (module Models.C11)) t)
             .Exec.Check.verdict))
    [ "LB+ctrl+mb"; "LB+datas" ];
  Fmt.pr
    "(without ctrl in rwdep the LK model inherits C11's out-of-thin-air \
     weakness on Figure 4, while data dependencies still save LB+datas)@.";

  (* sanity: both variants still agree with stock LK on fence tests *)
  Fmt.pr "@.== sanity: the edits are surgical ==@.";
  List.iter
    (fun name ->
      let t = battery name in
      assert (verdict lk t = verdict no_alpha t);
      assert (verdict lk t = verdict no_ctrl t);
      Fmt.pr "%-20s unchanged (%s)@." name (verdict lk t))
    [ "SB+mbs"; "MP+wmb+rmb"; "RCU-MP"; "WRC+po-rel+rmb" ]
