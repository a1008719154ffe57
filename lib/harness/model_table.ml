type t = {
  key : string;
  display : string;
  oracle : Exec.Oracle.t;
  cat : Cat.model Lazy.t;
}

let of_cat ~key name model =
  {
    key;
    display = name;
    oracle = Cat.to_oracle ~name model;
    cat = Lazy.from_val model;
  }

(* The native LK value carries its SAT engine, and the cat
   interpretation and the other native models are enumerative only;
   each built-in is explained through its shipped cat twin. *)
let table =
  let native key display m src () =
    {
      key;
      display;
      oracle = Exec.Oracle.of_model m;
      cat = lazy (Cat.parse src);
    }
  in
  let module S = Cat.Stdmodels in
  [
    ( [ "lk"; "lkmm"; "linux" ],
      fun () ->
        { key = "lk"; display = "LK"; oracle = Lkmm.oracle; cat = Cat.lk } );
    ( [ "lk-cat" ],
      fun () -> of_cat ~key:"lk-cat" "LK(cat)" (Lazy.force Cat.lk) );
    ([ "sc" ], native "sc" "SC" (module Models.Sc) S.sc);
    ([ "tso"; "x86" ], native "tso" "TSO" (module Models.Tso) S.tso);
    ([ "c11" ], native "c11" "C11" (module Models.C11) S.c11);
    ( [ "c11-psc"; "rc11" ],
      native "c11-psc" "C11+psc" (module Models.C11.Strengthened) S.c11_psc );
  ]

let builtins () =
  List.concat_map
    (fun (names, make) ->
      let m = make () in
      List.map (fun n -> (n, m)) names)
    table

let find name =
  let lname = String.lowercase_ascii name in
  match List.find_opt (fun (names, _) -> List.mem lname names) table with
  | Some (_, make) -> make ()
  | None when Filename.check_suffix name ".cat" ->
      let key = "cat:" ^ Digest.to_hex (Digest.file name) in
      { (of_cat ~key name (Cat.load_file name)) with display = lname }
  | None -> failwith ("unknown model: " ^ lname)

let explainer m =
  if m.key = "lk" then Lkmm.Explain.explainer
  else Cat.explainer (Lazy.force m.cat)

let check_names m =
  if m.key = "lk" then Lkmm.Explain.check_names
  else Cat.check_names (Lazy.force m.cat)
