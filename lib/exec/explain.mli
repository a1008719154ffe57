(* Structured verdict forensics: for a Forbidden verdict, *which* check
   failed, on *which* minimal cycle (or offending pairs), and how each
   derived edge decomposes into primitive rf/co/fr/po/dependency edges.

   Explanations are model-independent data: produced by [Cat.Explain]
   (any cat model) or [Lkmm.Explain] (the native model), carried through
   [Check.result] and [Harness.Report] (schema v3), rendered as text,
   JSON, or DOT overlays.  They are self-contained — event labels ride
   along — so they survive the pool's fork/marshal boundary and can be
   printed without the execution. *)

type kind = Acyclic | Irreflexive | Nonempty

val kind_to_string : kind -> string

(* A primitive edge of a decomposition: a base-relation name ("rf",
   "po", "addr", ...), possibly suffixed "^-1" for an inverted edge,
   "id" for a reflexive step, or an opaque rendered sub-expression where
   decomposition stopped. *)
type prim = { p_src : int; p_dst : int; p_label : string }

(* One edge of the witness, labelled with the branch of the checked
   relation it comes from (herd-style: "rfe", "ppo", ...) and its
   decomposition into a primitive path from [src] to [dst]. *)
type step = { src : int; dst : int; label : string; prims : prim list }

type t = {
  check : string; (* the cat [as] name / axiom name, e.g. "happens-before" *)
  kind : kind;
  steps : step list;
      (* Acyclic/Irreflexive: a closed cycle in order (dst_i = src_{i+1},
         last dst = first src); Nonempty: the offending pairs *)
  events : (int * string) list; (* event id -> rendered label *)
}

exception Invalid of string

(* "W[once] x=1 @P0" — the label format used in [events]. *)
val label_event : Event.t -> string

(* Labels for every event the steps mention, from the execution's event
   array. *)
val events_of_steps : Event.t array -> step list -> (int * string) list

(* [validate ~resolve t] re-checks [t] against the relations it names:
   structural coherence (cycle closes, decompositions are connected
   paths with the step's endpoints) and membership of every edge whose
   label [resolve] can map to a relation ("l^-1" checks the reversed
   pair; "id"/bracket labels must be reflexive; unresolvable labels are
   checked structurally only).  Raises {!Invalid} on the first offence.
   The producing engines run this before releasing an explanation, so a
   shipped explanation always re-validates. *)
val validate : resolve:(string -> Rel.t option) -> t -> unit

val event_label : t -> int -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> string
