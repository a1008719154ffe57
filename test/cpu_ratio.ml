(* Timing gates measured inside one process: how much more CPU time one
   way of checking a fixed corpus slice costs than another.

   The slice is every 5th test of corpus/MANIFEST, each checked under
   native LK and lk.cat.  CPU time ([Sys.time]) leaves out the time
   other processes hold the core.  The two runs of a pair are back to
   back, so a drift in the speed of a CPU second (clock frequency, a
   busy sibling hyperthread) cancels within the pair, and the median
   over the pairs drops the ones a burst of load split.  The order
   within a pair alternates, so neither side always runs second. *)

(* Every [stride]-th manifest entry with its file name — a fixed,
   spread-out sample. *)
let sample_tests stride =
  let dir =
    (* tests run from _build/default/test *)
    match List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ] with
    | Some dir -> dir
    | None -> failwith "corpus directory not found"
  in
  Harness.Runner.read_file (Filename.concat dir "MANIFEST")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.filteri (fun i _ -> i mod stride = 0)
  |> List.map (fun line ->
         let file = List.hd (String.split_on_char ' ' line) in
         ( file,
           Litmus.parse (Harness.Runner.read_file (Filename.concat dir file)) ))

let slice = lazy (List.map snd (sample_tests 5))
let lk_cat = lazy (Cat.to_oracle ~name:"LK(cat)" (Lazy.force Cat.lk))

(* One pass over the slice: [native] then [cat] on each test. *)
let battery ~native ~cat () =
  List.iter
    (fun t ->
      ignore (Sys.opaque_identity (native t));
      ignore (Sys.opaque_identity (cat t)))
    (Lazy.force slice)

(* A fixed computation to time the checker against: hashing, allocation
   and sorting, none of it the checker's code, so no change to the
   program moves it.  A copy of lkbench's [reference]
   (lkbench/common.ml), since test/ cannot link lkbench/. *)
let reference () =
  let x = ref 12345 in
  for _ = 1 to 4 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 9_999 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace h (!x land 0x3fff) (i, !x)
    done;
    let l =
      List.sort compare (List.init 10_000 (fun i -> (i * 7919) land 0xffff))
    in
    ignore (Sys.opaque_identity (Hashtbl.length h + List.length l))
  done

let cpu f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

(* The median over 11 adjacent pairs of cpu [slow] / cpu [base], after
   one untimed run of each. *)
let median ~base slow =
  base ();
  slow ();
  let ratio i =
    if i mod 2 = 0 then
      let b = cpu base in
      cpu slow /. b
    else
      let s = cpu slow in
      s /. cpu base
  in
  let ratios = Array.init 11 ratio in
  Array.sort Float.compare ratios;
  ratios.(5)
