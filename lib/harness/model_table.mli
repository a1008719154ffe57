(** The model names every front end accepts ([herd_lk -model],
    [lkserve] requests, [explain_report -model]), resolved once. *)

type t = {
  key : string;
      (** the verdict-cache ({!Vcache}) model key: the canonical
          built-in name (the binary pins a built-in's semantics), or
          ["cat:"] and the digest of a .cat file's contents (an edit
          invalidates the file's entries) *)
  display : string;
      (** LK, LK(cat), SC, TSO, C11, C11+psc; a .cat file's path,
          lowercased *)
  oracle : Exec.Oracle.t;
      (** lk-cat checks through lk.cat, every other built-in through
          its native model *)
  cat : Cat.model Lazy.t;
      (** the cat source explanations run on: the shipped twin of a
          built-in, or the file *)
}

val builtins : unit -> (string * t) list
(** Every built-in name and alias with its model, freshly built;
    aliases share their canonical name's record. *)

val find : string -> t
(** A built-in name or alias, in any case, or a path ending in
    [.cat].  Raises [Failure "unknown model: ..."] otherwise. *)

val of_cat : key:string -> string -> Cat.model -> t
(** [of_cat ~key name model]: a cat model under the given cache key,
    its oracle and display named [name]. *)

val explainer : t -> Exec.t -> Exec.Explain.t list
(** Verdict forensics: the native LK explainer for lk, the generic cat
    engine on {!field-cat} for every other model. *)

val check_names : t -> string list
