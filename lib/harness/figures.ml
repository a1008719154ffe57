(* Regenerating the paper's figures: each figure is a litmus test whose
   forbidden execution the LK model must reject (or, for Figure 14, an
   allowed test that C11 rejects).  The printer shows the test, the
   verdict, and — for forbidden tests — the violated axiom with a witness
   cycle, mirroring the paper's cycle-by-cycle explanations. *)

type figure = {
  id : string; (* e.g. "2", "4", ... *)
  entry : Battery.entry;
  caption : string;
}

let all =
  [
    {
      id = "2";
      entry = Battery.find "MP+wmb+rmb";
      caption = "Forbidden execution for the program in Figure 1 (hb cycle)";
    };
    {
      id = "4";
      entry = Battery.find "LB+ctrl+mb";
      caption = "LB+ctrl+mb: control dependency + smp_mb forbid load buffering";
    };
    {
      id = "5";
      entry = Battery.find "WRC+po-rel+rmb";
      caption = "WRC+po-rel+rmb: A-cumulative release forbids WRC";
    };
    {
      id = "6";
      entry = Battery.find "SB+mbs";
      caption = "SB+mbs: store buffering forbidden by strong fences (pb cycle)";
    };
    {
      id = "7";
      entry = Battery.find "PeterZ";
      caption = "PeterZ: perf vs CPU-hotplug race, forbidden by two strong fences";
    };
    {
      id = "9";
      entry = Battery.find "MP+wmb+addr-acq";
      caption = "MP+wmb+addr-acq: the rrdep* prefix of ppo";
    };
    {
      id = "10";
      entry = Battery.find "RCU-MP";
      caption = "RCU-MP: the RCU axiom (RSCS cannot span a GP)";
    };
    {
      id = "11";
      entry = Battery.find "RCU-deferred-free";
      caption = "RCU-deferred-free: reads swapped, still forbidden";
    };
    {
      id = "13";
      entry = Battery.find "RWC+mbs";
      caption = "RWC+mbs: LK forbids (pb cycle), original C11 allows";
    };
    {
      id = "14";
      entry = Battery.find "WRC+wmb+acq";
      caption = "WRC+wmb+acq: LK allows (no smp_wmb equivalent in C11)";
    };
  ]

(* A figure's test, its LK result with forensics, and its C11 verdict
   beside the paper's where the paper gives one, from one check. *)
let check (f : figure) =
  let test = Battery.test_of f.entry in
  let lk, c11 = Table5.check ~explainer:Lkmm.Explain.explainer test in
  ( test,
    lk,
    match (c11, f.entry.c11) with
    | Some got, Some expected -> Some (got.Exec.Check.verdict, expected)
    | _ -> None )

let pp_one ppf (f : figure) =
  let test, lk, c11 = check f in
  Fmt.pf ppf "@[<v>--- Figure %s: %s ---@,%s@,LK: %a@,"
    f.id f.entry.name f.caption (Lkmm.Explain.pp_result test) lk;
  Option.iter
    (fun (got, expected) ->
      Fmt.pf ppf "C11: %a (paper: %a)@," Exec.Check.pp_verdict got
        Exec.Check.pp_verdict expected)
    c11;
  Fmt.pf ppf "@]"

let pp ppf () = List.iter (pp_one ppf) all

(* For tests: each figure's verdicts match the paper. *)
let issues () =
  List.filter_map
    (fun f ->
      let _, lk, c11 = check f in
      if lk.Exec.Check.verdict <> f.entry.lk then
        Some (Printf.sprintf "figure %s: LK verdict differs" f.id)
      else
        match c11 with
        | Some (got, expected) when got <> expected ->
            Some (Printf.sprintf "figure %s: C11 verdict differs" f.id)
        | _ -> None)
    all
