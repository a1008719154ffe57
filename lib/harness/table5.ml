(* Regenerating Table 5: for each named test, the LK model verdict, the
   observed/total counts on each simulated architecture, and the C11
   verdict under the mapping of [68]. *)

type row = {
  name : string;
  lk : Exec.Check.verdict;
  lk_expected : Exec.Check.verdict;
  hw : (string * int * int) list; (* arch, observed, total *)
  c11 : Exec.Check.verdict option;
  c11_expected : Exec.Check.verdict option;
  hw_expected : string list; (* archs the paper observed the outcome on *)
}

(* The LK and C11 columns of a test in one check on the scalar
   engines; C11 only where it applies. *)
let check ?explainer test =
  let rs =
    Exec.Check.run
      (Exec.Check.model ?explainer (module Lkmm)
      ::
      (if Models.C11.applicable test then
         [ Exec.Check.model (module Models.C11) ]
       else []))
      test
  in
  (List.hd rs, List.nth_opt rs 1)

let row_of_entry ?(runs = 5_000) ?(seed = 7) (e : Battery.entry) =
  let test = Battery.test_of e in
  let lk, c11 = check test in
  let verdict (r : Exec.Check.result) = r.verdict in
  let lk = verdict lk and c11 = Option.map verdict c11 in
  let hw =
    List.map
      (fun arch ->
        let s = Hwsim.run_test arch ~runs ~seed test in
        (s.Hwsim.arch, s.Hwsim.matched, s.Hwsim.total))
      Hwsim.Arch.table5
  in
  {
    name = e.name;
    lk;
    lk_expected = e.lk;
    hw;
    c11;
    c11_expected = e.c11;
    hw_expected = e.hw_observable;
  }

let rows ?runs ?seed () =
  List.map (row_of_entry ?runs ?seed)
    (List.filter (fun e -> e.Battery.in_table5) Battery.all)

let verdict_str = Exec.Check.verdict_to_string

let cell (observed, total) =
  let h n =
    if n >= 1_000_000 then Printf.sprintf "%dM" (n / 1_000_000)
    else if n >= 1_000 then Printf.sprintf "%dk" (n / 1_000)
    else string_of_int n
  in
  Printf.sprintf "%s/%s" (h observed) (h total)

let pp ppf rows =
  Fmt.pf ppf "%-22s %-7s %10s %10s %10s %10s   %-6s@\n" "Test" "Model"
    "Power8" "ARMv8" "ARMv7" "X86" "C11";
  List.iter
    (fun r ->
      let hw_cell name =
        match List.find_opt (fun (a, _, _) -> a = name) r.hw with
        | Some (_, m, t) -> cell (m, t)
        | None -> "-"
      in
      Fmt.pf ppf "%-22s %-7s %10s %10s %10s %10s   %-6s%s@\n" r.name
        (verdict_str r.lk) (hw_cell "Power8") (hw_cell "ARMv8")
        (hw_cell "ARMv7") (hw_cell "X86")
        (match r.c11 with Some v -> verdict_str v | None -> "-")
        (if r.lk = r.lk_expected && r.c11 = r.c11_expected then ""
         else "  ** differs from paper **"))
    rows

(* Shape checks against the paper's Table 5, usable by tests:
   1. every verdict (LK and C11) matches the paper;
   2. model-forbidden outcomes are never observed on any simulated arch;
   3. outcomes the paper saw on an architecture are seen there too
      (given enough runs);
   4. the simulators are sound w.r.t. the LK model. *)
type shape_issue = string

let shape_issues ?(check_observed = true) (rows : row list) : shape_issue list
    =
  List.concat_map
    (fun r ->
      let verdicts =
        (if r.lk <> r.lk_expected then
           [ Printf.sprintf "%s: LK verdict differs from paper" r.name ]
         else [])
        @
        if r.c11 <> r.c11_expected then
          [ Printf.sprintf "%s: C11 verdict differs from paper" r.name ]
        else []
      in
      let forbidden_observed =
        if r.lk = Exec.Check.Forbid then
          List.filter_map
            (fun (a, m, _) ->
              if m > 0 then
                Some
                  (Printf.sprintf "%s: forbidden outcome observed on %s"
                     r.name a)
              else None)
            r.hw
        else []
      in
      let missing_observation =
        if check_observed then
          List.filter_map
            (fun a ->
              match List.find_opt (fun (a', _, _) -> a = a') r.hw with
              | Some (_, m, _) when m = 0 ->
                  Some
                    (Printf.sprintf
                       "%s: paper observed the outcome on %s, simulator did \
                        not"
                       r.name a)
              | _ -> None)
            r.hw_expected
        else []
      in
      verdicts @ forbidden_observed @ missing_observation)
    rows
