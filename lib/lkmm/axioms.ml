(* The axioms of the LK model: Figure 3 of the paper, plus the RCU axiom of
   Figure 12. *)

type name = Scpv | At | Hb | Pb | Rcu

let all = [ Scpv; At; Hb; Pb; Rcu ]

let to_string = function
  | Scpv -> "sc-per-variable"
  | At -> "atomicity"
  | Hb -> "happens-before"
  | Pb -> "propagates-before"
  | Rcu -> "rcu"

(* The relation each axiom constrains, for explanations. *)
let relation (c : Relations.ctx) = function
  | Scpv -> Rel.union c.x.po_loc c.x.com
  | At -> c.at
  | Hb -> c.hb
  | Pb -> c.pb
  | Rcu -> c.rcu_path

let holds (c : Relations.ctx) = function
  | Scpv -> Rel.is_acyclic (Rel.union c.x.po_loc c.x.com)
  | At -> Rel.is_empty c.at
  | Hb -> Rel.is_acyclic c.hb
  | Pb -> Rel.is_acyclic c.pb
  | Rcu -> Rel.is_irreflexive c.rcu_path

(* Axioms violated by the execution, in Figure 3 order. *)
let violations c = List.filter (fun a -> not (holds c a)) all

let consistent_ctx c = violations c = []
let consistent x = consistent_ctx (Relations.make_cached x)
