(* Machine facts recorded with every result, so a number is never read
   without the hardware and code it was measured on. *)

let commit () =
  if not (Sys.file_exists ".git") then "none (not a git checkout)"
  else
    match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
    | ic ->
        let line = try input_line ic with End_of_file -> "unknown" in
        ignore (Unix.close_process_in ic);
        line
    | exception Unix.Unix_error _ -> "unknown"

(* A digest of the library sources: identifies the measured code even in
   a checkout without git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  if not (Sys.file_exists "lib") then "none"
  else
    Digest.to_hex
      (Digest.string (String.concat "\000" (List.map Common.read_file (files "lib"))))

(* Campaign workers need a core each (the orchestrator mostly
   sleeps). *)
let all ~workload =
  let n = Common.nproc () in
  [
    ("nproc", string_of_int n);
    ("ocaml", Sys.ocaml_version);
    ("commit", commit ());
    ("lib_digest", source_digest ());
    ("workload", workload);
  ]
  @
  match workload with
  | "campaign" ->
      [ ("campaign_core_each", string_of_bool (n >= Wl_campaign.jobs)) ]
  | _ -> []
