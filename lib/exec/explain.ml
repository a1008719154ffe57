(* Structured verdict forensics (observability layer, semantic half).

   When a model rejects a candidate execution, "Forbid" alone is not
   auditable: the paper's authors debug the LKMM by inspecting *which*
   axiom fires on *which* cycle, and herd's diagrams make that
   inspection visual.  An {!Explain.t} is the machine-readable form of
   that inspection for one failed check of one candidate:

   - the check, by its cat [as] name ("happens-before", "rcu", ...);
   - a witness: a minimal cycle for [acyclic]/[irreflexive] checks
     (shortest via BFS in the dense relation kernel), offending pairs
     for [empty] checks;
   - per edge, a herd-style label ("rfe", "ppo", ...) and a provenance
     decomposition into primitive relation edges (rf/co/fr/po/
     dependency edges), obtained by walking the defining expressions;
   - rendered event labels, so the explanation is self-contained (it
     survives marshalling across the pool's fork boundary and JSON
     export without the execution).

   Explanations are produced by the model-side engines
   ({!Cat.Explain} for any cat model, {!Lkmm.Explain} for the native
   model) and validated at construction: {!validate} re-checks every
   reported edge against the named relation it claims to come from,
   and an explanation that does not re-validate raises {!Invalid} — a
   hard error, never a silently wrong diagram. *)

type kind = Acyclic | Irreflexive | Nonempty

let kind_to_string = function
  | Acyclic -> "acyclic"
  | Irreflexive -> "irreflexive"
  | Nonempty -> "empty"

(* One primitive edge of a provenance decomposition.  [label] is a
   primitive relation name ("rf", "po", "addr", ...), a name tagged
   ["^-1"] for inverted edges, ["id"] for reflexive steps, or an
   opaque rendered sub-expression where decomposition stops
   (complement/cartesian leaves). *)
type prim = { p_src : int; p_dst : int; p_label : string }

(* One edge of the witness.  [label] is the branch of the checked
   relation the edge comes from (the herd-style edge name); [prims] is
   its decomposition into a path of primitive edges from [src] to
   [dst]. *)
type step = { src : int; dst : int; label : string; prims : prim list }

type t = {
  check : string;  (* the cat [as] name, or the axiom name *)
  kind : kind;
  steps : step list;
      (* Acyclic/Irreflexive: a closed cycle in order; Nonempty: the
         offending pairs (possibly truncated) *)
  events : (int * string) list; (* id -> rendered label, sorted by id *)
}

exception Invalid of string

(* ------------------------------------------------------------------ *)
(* Event labels                                                        *)
(* ------------------------------------------------------------------ *)

(* "W[once] x=1 @P0" — like the paper's figures; the thread qualifier
   distinguishes same-looking accesses, init writes print "@init". *)
let label_event (e : Event.t) =
  let where = if e.Event.tid < 0 then "@init" else Printf.sprintf "@P%d" e.Event.tid in
  if Event.is_fence e then
    Printf.sprintf "F[%s] %s" (Event.annot_to_string e.Event.annot) where
  else
    Printf.sprintf "%s[%s] %s=%d %s" (Event.dir_to_string e.Event.dir)
      (Event.annot_to_string e.Event.annot)
      e.Event.loc e.Event.v where

(* The ids an explanation mentions, steps and decompositions alike. *)
let mentioned_ids (steps : step list) =
  List.concat_map
    (fun s ->
      (s.src :: s.dst
       :: List.concat_map (fun p -> [ p.p_src; p.p_dst ]) s.prims))
    steps
  |> List.sort_uniq Int.compare

let events_of_steps (events : Event.t array) steps =
  List.filter_map
    (fun id ->
      if id >= 0 && id < Array.length events then
        Some (id, label_event events.(id))
      else None)
    (mentioned_ids steps)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* [validate ~resolve t] re-checks the explanation against the
   relations it names: structure (the cycle closes, each step's
   decomposition is a path from the step's source to its target) and
   membership (every edge whose label [resolve] can turn into a
   relation is an edge of that relation; ["l^-1"] labels check the
   reversed pair, ["id"] and bracket labels must be reflexive).
   Raises {!Invalid} with the first offence.  The engines call this
   before releasing an explanation, so a shipped explanation always
   re-validates; harness-side consumers may re-run it with their own
   resolver. *)
(* A label that denotes an identity-restriction: exactly one bracket
   expression "[...]" (an opaque compound label may merely *start* with
   a bracket — "[Mb] ; po ; ..." — and relates distinct events). *)
let is_bracket_label label =
  let n = String.length label in
  n >= 2
  && label.[0] = '['
  && label.[n - 1] = ']'
  &&
  let rec scan i depth =
    if i >= n then false
    else
      match label.[i] with
      | '[' -> scan (i + 1) (depth + 1)
      | ']' -> if depth = 1 then i = n - 1 else scan (i + 1) (depth - 1)
      | _ -> scan (i + 1) depth
  in
  scan 0 0

let check_membership ~resolve what s d label =
  let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  if label = "id" || is_bracket_label label then begin
    if s <> d then fail "%s: identity-like edge %s has %d <> %d" what label s d
  end
  else
    let base, inverted =
      match Filename.check_suffix label "^-1" with
      | true -> (Filename.chop_suffix label "^-1", true)
      | false -> (label, false)
    in
    match resolve base with
    | None -> () (* opaque label: structure-only *)
    | Some rel ->
        let a, b = if inverted then (d, s) else (s, d) in
        if not (Rel.mem a b rel) then
          fail "%s: (%d, %d) is not an edge of %s" what a b label

let validate ~resolve (t : t) =
  let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  if t.steps = [] then fail "check %s: empty witness" t.check;
  (* each step's decomposition is a path src -> dst *)
  List.iter
    (fun (st : step) ->
      let what = Printf.sprintf "check %s, edge %d->%d" t.check st.src st.dst in
      check_membership ~resolve what st.src st.dst st.label;
      (match st.prims with
      | [] ->
          if st.src <> st.dst then
            fail "%s: empty decomposition of a non-reflexive edge" what
      | ps ->
          let first = List.hd ps and last = List.nth ps (List.length ps - 1) in
          if first.p_src <> st.src then
            fail "%s: decomposition starts at %d" what first.p_src;
          if last.p_dst <> st.dst then
            fail "%s: decomposition ends at %d" what last.p_dst;
          ignore
            (List.fold_left
               (fun prev (p : prim) ->
                 (match prev with
                 | Some q ->
                     if q <> p.p_src then
                       fail "%s: decomposition breaks at %d -> %d" what q
                         p.p_src
                 | None -> ());
                 Some p.p_dst)
               None ps));
      List.iter
        (fun (p : prim) ->
          check_membership ~resolve
            (Printf.sprintf "%s, primitive %d->%d" what p.p_src p.p_dst)
            p.p_src p.p_dst p.p_label)
        st.prims)
    t.steps;
  (* cycle witnesses must chain and close *)
  match t.kind with
  | Nonempty -> ()
  | Acyclic | Irreflexive ->
      let rec chain = function
        | (a : step) :: (b :: _ as rest) ->
            if a.dst <> b.src then
              fail "check %s: cycle breaks at %d -> %d" t.check a.dst b.src;
            chain rest
        | _ -> ()
      in
      chain t.steps;
      let first = List.hd t.steps
      and last = List.nth t.steps (List.length t.steps - 1) in
      if last.dst <> first.src then
        fail "check %s: cycle does not close (%d <> %d)" t.check last.dst
          first.src

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let event_label t id =
  match List.assoc_opt id t.events with
  | Some l -> l
  | None -> Printf.sprintf "e%d" id

(* "W[once] x=1 @P0 ->rfe R[once] x=1 @P1 ->ppo ..." *)
let pp_steps_chain ppf (t : t) =
  match t.steps with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (s : step) ->
          Fmt.pf ppf "%s@ \xe2\x86\x92%s " (event_label t s.src) s.label)
        t.steps;
      Fmt.pf ppf "%s" (event_label t first.src)

let interesting_prims (s : step) =
  (* a decomposition worth printing: more than the edge restated *)
  match s.prims with
  | [ p ] -> p.p_label <> s.label
  | _ -> true

let pp_prims ppf (t : t) (s : step) =
  Fmt.pf ppf "%s " (event_label t s.src);
  List.iter
    (fun (p : prim) ->
      if p.p_src = p.p_dst && p.p_label = "id" then ()
      else Fmt.pf ppf "\xe2\x86\x92%s %s " p.p_label (event_label t p.p_dst))
    s.prims

let pp ppf (t : t) =
  (match t.kind with
  | Acyclic | Irreflexive ->
      Fmt.pf ppf "@[<v2>check `%s' (%s): cycle@,@[<hov>%a@]" t.check
        (kind_to_string t.kind) pp_steps_chain t
  | Nonempty ->
      Fmt.pf ppf "@[<v2>check `%s' (empty): %d offending pair%s" t.check
        (List.length t.steps)
        (if List.length t.steps = 1 then "" else "s");
      List.iter
        (fun (s : step) ->
          Fmt.pf ppf "@,%s \xe2\x86\x92%s %s" (event_label t s.src) s.label
            (event_label t s.dst))
        t.steps);
  List.iter
    (fun (s : step) ->
      if interesting_prims s then
        Fmt.pf ppf "@,where %s: @[<hov>%a@]" s.label (fun ppf () ->
            pp_prims ppf t s)
          ())
    t.steps;
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* JSON (schema v3: the [explanations] array of report entries)        *)
(* ------------------------------------------------------------------ *)

let prim_to_json (p : prim) =
  Printf.sprintf "{\"src\": %d, \"dst\": %d, \"label\": \"%s\"}" p.p_src
    p.p_dst (Obs.json_escape p.p_label)

let step_to_json (s : step) =
  Printf.sprintf
    "{\"src\": %d, \"dst\": %d, \"label\": \"%s\", \"prims\": [%s]}" s.src
    s.dst (Obs.json_escape s.label)
    (String.concat ", " (List.map prim_to_json s.prims))

let to_json (t : t) =
  Printf.sprintf
    "{\"check\": \"%s\", \"kind\": \"%s\", \"validated\": true, \"steps\": \
     [%s], \"events\": [%s]}"
    (Obs.json_escape t.check) (kind_to_string t.kind)
    (String.concat ", " (List.map step_to_json t.steps))
    (String.concat ", "
       (List.map
          (fun (id, l) ->
            Printf.sprintf "{\"id\": %d, \"label\": \"%s\"}" id
              (Obs.json_escape l))
          t.events))
