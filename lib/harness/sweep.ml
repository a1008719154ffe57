(* Systematic sweeps in the spirit of Section 5: generate many tests with
   the diy-style generator, check them under several models, and verify
   the simulated hardware is sound with respect to the LK model.

   Every per-test check runs under a fresh budget (when one is given), so
   a single explosive test degrades to an [Unknown] entry instead of
   stalling the whole sweep. *)

type stats = {
  n_tests : int;
  lk_allow : int;
  lk_forbid : int;
  lk_unknown : int; (* budget tripped or model failed: partial result *)
  sc_forbid : int; (* forbidden under SC: sanity, SC is strongest *)
  c11_disagree : int; (* tests where C11 and LK verdicts differ *)
  unsound : (string * string) list; (* test, arch: sim outcome not in model *)
  unknown : (string * string) list; (* test, reason: checks that gave up *)
}

(* A test's verdicts under [oracles], from one call: fresh budget per
   test so one explosion cannot eat the whole sweep's allowance.  Checks
   go through {!Exec.Oracle.run_all}, so [?backend] is each model's
   request (the LK oracle ships both engines; the comparison models
   resolve to their only one). *)
let verdicts ?limits ?backend oracles t =
  List.map
    (fun r -> r.Exec.Check.verdict)
    (Exec.Oracle.run_all ?backend
       ?budget:(Option.map Exec.Budget.start limits)
       oracles t)

let sc_oracle = Exec.Oracle.of_model (module Models.Sc)
let tso_oracle = Exec.Oracle.of_model (module Models.Tso)
let c11_oracle = Exec.Oracle.of_model (module Models.C11)

let classify ?limits ?backend ?(archs = [ Hwsim.Arch.power8; Hwsim.Arch.x86 ])
    ?(runs = 300) ?(seed = 5) tests =
  let lk_allow = ref 0
  and lk_forbid = ref 0
  and lk_unknown = ref 0
  and sc_forbid = ref 0
  and c11_disagree = ref 0
  and unsound = ref []
  and unknown = ref [] in
  List.iter
    (fun (t : Litmus.Ast.t) ->
      let lk, sc, c11 =
        match
          verdicts ?limits ?backend
            (Lkmm.oracle :: sc_oracle
            :: (if Models.C11.applicable t then [ c11_oracle ] else []))
            t
        with
        | lk :: sc :: c11 -> (lk, sc, List.nth_opt c11 0)
        | _ -> assert false
      in
      (match lk with
      | Exec.Check.Allow -> incr lk_allow
      | Exec.Check.Forbid -> incr lk_forbid
      | Exec.Check.Unknown r ->
          incr lk_unknown;
          unknown :=
            (t.name, Exec.Check.unknown_reason_to_string r) :: !unknown);
      (match sc with
      | Exec.Check.Forbid -> incr sc_forbid
      | Exec.Check.Allow | Exec.Check.Unknown _ -> ());
      (match (c11, lk) with
      | None, _ | Some (Exec.Check.Unknown _), _ | _, Exec.Check.Unknown _ -> ()
      | Some c11, _ -> if c11 <> lk then incr c11_disagree);
      match lk with
      | Exec.Check.Unknown _ ->
          (* the model gave up: soundness of the simulators against it is
             not decidable for this test, skip rather than block *)
          ()
      | _ ->
          List.iter
            (fun arch ->
              let s = Hwsim.run_test arch ~runs ~seed t in
              match Hwsim.soundness ?limits Lkmm.oracle t s with
              | Hwsim.Sound -> ()
              | Hwsim.Unsound _ ->
                  unsound := (t.name, arch.Hwsim.Arch.name) :: !unsound
              | Hwsim.Soundness_unknown r ->
                  unknown :=
                    ( t.name,
                      Printf.sprintf "%s soundness: %s" arch.Hwsim.Arch.name
                        (Exec.Budget.reason_to_string r) )
                    :: !unknown)
            archs)
    tests;
  {
    n_tests = List.length tests;
    lk_allow = !lk_allow;
    lk_forbid = !lk_forbid;
    lk_unknown = !lk_unknown;
    sc_forbid = !sc_forbid;
    c11_disagree = !c11_disagree;
    unsound = !unsound;
    unknown = !unknown;
  }

let pp ppf s =
  Fmt.pf ppf
    "tests: %d, LK allow/forbid/unknown: %d/%d/%d, SC-forbidden: %d, C11 \
     disagreements: %d, unsound sim cells: %d, gave up: %d"
    s.n_tests s.lk_allow s.lk_forbid s.lk_unknown s.sc_forbid s.c11_disagree
    (List.length s.unsound) (List.length s.unknown)

(* Weak-inclusion sanity across models: everything SC allows, TSO allows;
   everything TSO allows, LK allows (on non-RCU tests under the LK->x86
   mapping this is the expected strength ordering).  Unknown verdicts are
   skipped — a partial result is not a strength violation. *)
let strength_issues ?limits ?backend tests =
  List.concat_map
    (fun (t : Litmus.Ast.t) ->
      let sc, tso, lk =
        match
          verdicts ?limits ?backend
            [ sc_oracle; tso_oracle; Lkmm.oracle ]
            t
        with
        | [ sc; tso; lk ] -> (sc, tso, lk)
        | _ -> assert false
      in
      (if sc = Exec.Check.Allow && tso = Exec.Check.Forbid then
         [ Printf.sprintf "%s: SC allows but TSO forbids" t.name ]
       else [])
      @
      (* RCU guarantees come from the grace-period algorithm, not from the
         hardware model, so the comparison only makes sense without RCU *)
      if
        (not (Litmus.Ast.has_rcu t))
        && tso = Exec.Check.Allow
        && lk = Exec.Check.Forbid
      then [ Printf.sprintf "%s: TSO allows but LK forbids" t.name ]
      else [])
    tests
