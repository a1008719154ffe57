(* Recursive-descent parser for the C-flavoured litmus format:

     C MP+wmb+rmb

     { x=0; y=0; }

     P0(int *x, int *y) {
       WRITE_ONCE(x, 1);
       smp_wmb();
       WRITE_ONCE(y, 1);
     }

     P1(int *x, int *y) {
       int r1 = READ_ONCE(y);
       smp_rmb();
       int r2 = READ_ONCE(x);
     }

     exists (1:r1=1 /\ 1:r2=0)

   Location arguments of primitives may be written [*x], [x] or [*r]; a name
   that was declared with [int r = ...] in the current thread is a register
   (giving an address dependency when dereferenced), anything else is a
   global. *)

open Ast

exception Error of string * int

type cursor = { mutable toks : (Lexer.token * int) list }

let line c = match c.toks with (_, l) :: _ -> l | [] -> 0
let peek c = match c.toks with (t, _) :: _ -> t | [] -> Lexer.EOF

let peek2 c =
  match c.toks with _ :: (t, _) :: _ -> t | _ -> Lexer.EOF

let junk c = match c.toks with _ :: rest -> c.toks <- rest | [] -> ()

let fail c msg =
  raise (Error (Printf.sprintf "%s (near %s)" msg (Lexer.to_string (peek c)), line c))

let expect c tok =
  if peek c = tok then junk c
  else fail c (Printf.sprintf "expected %s" (Lexer.to_string tok))

let ident c =
  match peek c with
  | Lexer.ID s ->
      junk c;
      s
  | _ -> fail c "expected identifier"

let int_lit c =
  match peek c with
  | Lexer.INT n ->
      junk c;
      n
  | Lexer.MINUS ->
      junk c;
      (match peek c with
      | Lexer.INT n ->
          junk c;
          -n
      | _ -> fail c "expected integer after -")
  | _ -> fail c "expected integer"

(* ------------------------------------------------------------------ *)
(* Expressions (registers, constants, &globals)                        *)
(* ------------------------------------------------------------------ *)

(* [regs] is the set of register names declared so far in this thread. *)
let rec parse_expr c regs = parse_lor c regs

and parse_lor c regs =
  let lhs = parse_land c regs in
  match peek c with
  | Lexer.BARBAR ->
      junk c;
      Binop (Lor, lhs, parse_lor c regs)
  | _ -> lhs

and parse_land c regs =
  let lhs = parse_cmp c regs in
  match peek c with
  | Lexer.AMPAMP ->
      junk c;
      Binop (Land, lhs, parse_land c regs)
  | _ -> lhs

and parse_cmp c regs =
  let lhs = parse_add c regs in
  let bin op =
    junk c;
    Binop (op, lhs, parse_add c regs)
  in
  match peek c with
  | Lexer.EQEQ -> bin Eq
  | Lexer.NEQ -> bin Neq
  | Lexer.LT -> bin Lt
  | Lexer.GT -> bin Gt
  | Lexer.LE -> bin Le
  | Lexer.GE -> bin Ge
  | _ -> lhs

and parse_add c regs =
  let rec go lhs =
    match peek c with
    | Lexer.PLUS ->
        junk c;
        go (Binop (Add, lhs, parse_bits c regs))
    | Lexer.MINUS ->
        junk c;
        go (Binop (Sub, lhs, parse_bits c regs))
    | _ -> lhs
  in
  go (parse_bits c regs)

and parse_bits c regs =
  let rec go lhs =
    match peek c with
    | Lexer.AMP ->
        junk c;
        go (Binop (Band, lhs, parse_atom c regs))
    | Lexer.BAR ->
        junk c;
        go (Binop (Bor, lhs, parse_atom c regs))
    | Lexer.CARET ->
        junk c;
        go (Binop (Bxor, lhs, parse_atom c regs))
    | _ -> lhs
  in
  go (parse_atom c regs)

and parse_atom c regs =
  match peek c with
  | Lexer.INT _ | Lexer.MINUS -> Const (int_lit c)
  | Lexer.BANG ->
      junk c;
      Unop (Lnot, parse_atom c regs)
  | Lexer.AMP ->
      junk c;
      Addr (ident c)
  | Lexer.LPAR ->
      junk c;
      let e = parse_expr c regs in
      expect c Lexer.RPAR;
      e
  | Lexer.ID x ->
      junk c;
      if List.mem x regs then Reg x
      else fail c (Printf.sprintf "unknown register %s in expression" x)
  | _ -> fail c "expected expression"

(* ------------------------------------------------------------------ *)
(* Locations                                                           *)
(* ------------------------------------------------------------------ *)

let parse_loc c regs =
  let deref =
    match peek c with
    | Lexer.STAR ->
        junk c;
        true
    | _ -> false
  in
  let x = ident c in
  if List.mem x regs then
    if deref then Deref x
    else fail c (Printf.sprintf "register %s used as location without *" x)
  else Sym x

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let fence_of_name = function
  | "smp_mb" -> Some F_mb
  | "smp_rmb" -> Some F_rmb
  | "smp_wmb" -> Some F_wmb
  | "smp_read_barrier_depends" -> Some F_rb_dep
  | "rcu_read_lock" -> Some F_rcu_lock
  | "rcu_read_unlock" -> Some F_rcu_unlock
  | "synchronize_rcu" | "synchronize_rcu_expedited" -> Some F_sync_rcu
  | _ -> None

let cmpxchg_of_name = function
  | "cmpxchg" -> Some X_full
  | "cmpxchg_relaxed" -> Some X_relaxed
  | "cmpxchg_acquire" -> Some X_acquire
  | "cmpxchg_release" -> Some X_release
  | _ -> None

let xchg_of_name = function
  | "xchg" -> Some X_full
  | "xchg_relaxed" -> Some X_relaxed
  | "xchg_acquire" -> Some X_acquire
  | "xchg_release" -> Some X_release
  | _ -> None

let add_return_of_name = function
  | "atomic_add_return" -> Some X_full
  | "atomic_add_return_relaxed" -> Some X_relaxed
  | "atomic_add_return_acquire" -> Some X_acquire
  | "atomic_add_return_release" -> Some X_release
  | _ -> None

let read_of_name = function
  | "READ_ONCE" -> Some `Once
  | "smp_load_acquire" -> Some `Acquire
  | "rcu_dereference" -> Some `Rcu_deref
  | _ -> None

(* Parse the right-hand side of [r = ...]: a read primitive, an xchg, or a
   pure expression. *)
let parse_rhs c regs reg =
  match peek c with
  | Lexer.ID name when read_of_name name <> None -> begin
      junk c;
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.RPAR;
      match read_of_name name with
      | Some `Once -> Read (R_once, reg, loc)
      | Some `Acquire -> Read (R_acquire, reg, loc)
      | Some `Rcu_deref -> Rcu_dereference (reg, loc)
      | None -> assert false
    end
  | Lexer.ID name when xchg_of_name name <> None ->
      junk c;
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.COMMA;
      let e = parse_expr c regs in
      expect c Lexer.RPAR;
      Xchg (Option.get (xchg_of_name name), reg, loc, e)
  | Lexer.ID name when cmpxchg_of_name name <> None ->
      junk c;
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.COMMA;
      let e1 = parse_expr c regs in
      expect c Lexer.COMMA;
      let e2 = parse_expr c regs in
      expect c Lexer.RPAR;
      Cmpxchg (Option.get (cmpxchg_of_name name), reg, loc, e1, e2)
  | Lexer.ID name when add_return_of_name name <> None ->
      (* LK argument order: atomic_add_return(i, v) *)
      junk c;
      expect c Lexer.LPAR;
      let e = parse_expr c regs in
      expect c Lexer.COMMA;
      let loc = parse_loc c regs in
      expect c Lexer.RPAR;
      Atomic_add_return (Option.get (add_return_of_name name), reg, loc, e)
  | _ -> Assign (reg, parse_expr c regs)

let rec parse_stmt c regs =
  match peek c with
  | Lexer.ID "int" ->
      (* int r = <rhs>; *)
      junk c;
      (* allow optional * in declarations: int *r = ... *)
      (match peek c with Lexer.STAR -> junk c | _ -> ());
      let r = ident c in
      expect c Lexer.EQ;
      let regs' = r :: regs in
      let stmt = parse_rhs c regs r in
      expect c Lexer.SEMI;
      ([ stmt ], regs')
  | Lexer.ID "if" ->
      junk c;
      expect c Lexer.LPAR;
      let e = parse_expr c regs in
      expect c Lexer.RPAR;
      let then_b, regs = parse_block_or_stmt c regs in
      let else_b, regs =
        match peek c with
        | Lexer.ID "else" ->
            junk c;
            parse_block_or_stmt c regs
        | _ -> ([], regs)
      in
      ([ If (e, then_b, else_b) ], regs)
  | Lexer.ID name when fence_of_name name <> None ->
      junk c;
      expect c Lexer.LPAR;
      expect c Lexer.RPAR;
      expect c Lexer.SEMI;
      ([ Fence (Option.get (fence_of_name name)) ], regs)
  | Lexer.ID "atomic_add" ->
      junk c;
      expect c Lexer.LPAR;
      let e = parse_expr c regs in
      expect c Lexer.COMMA;
      let loc = parse_loc c regs in
      expect c Lexer.RPAR;
      expect c Lexer.SEMI;
      ([ Atomic_add (loc, e) ], regs)
  | Lexer.ID (("atomic_inc" | "atomic_dec") as name) ->
      junk c;
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.RPAR;
      expect c Lexer.SEMI;
      ([ Atomic_add (loc, Const (if name = "atomic_inc" then 1 else -1)) ],
       regs)
  | Lexer.ID (("spin_lock" | "spin_unlock") as name) ->
      junk c;
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.RPAR;
      expect c Lexer.SEMI;
      ([ (if name = "spin_lock" then Spin_lock loc else Spin_unlock loc) ],
       regs)
  | Lexer.ID ("WRITE_ONCE" | "smp_store_release" | "rcu_assign_pointer") ->
      let name = ident c in
      let annot = if name = "WRITE_ONCE" then W_once else W_release in
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.COMMA;
      let e = parse_expr c regs in
      expect c Lexer.RPAR;
      expect c Lexer.SEMI;
      ([ Write (annot, loc, e) ], regs)
  | Lexer.ID name when xchg_of_name name <> None ->
      (* bare xchg statement: result discarded into a fresh register *)
      junk c;
      expect c Lexer.LPAR;
      let loc = parse_loc c regs in
      expect c Lexer.COMMA;
      let e = parse_expr c regs in
      expect c Lexer.RPAR;
      expect c Lexer.SEMI;
      let r = Printf.sprintf "__x%d" (List.length regs) in
      ([ Xchg (Option.get (xchg_of_name name), r, loc, e) ], r :: regs)
  | Lexer.ID name when List.mem name regs ->
      junk c;
      expect c Lexer.EQ;
      let stmt = parse_rhs c regs name in
      expect c Lexer.SEMI;
      ([ stmt ], regs)
  | _ -> fail c "expected statement"

and parse_block_or_stmt c regs =
  match peek c with
  | Lexer.LBRACE ->
      junk c;
      let rec go acc regs =
        match peek c with
        | Lexer.RBRACE ->
            junk c;
            (List.rev acc, regs)
        | _ ->
            let stmts, regs = parse_stmt c regs in
            go (List.rev_append stmts acc) regs
      in
      go [] regs
  | _ -> parse_stmt c regs

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

let parse_thread c =
  (* P<k> ( params ) { stmts } *)
  let name = ident c in
  let tid =
    if String.length name >= 2 && name.[0] = 'P' then
      match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
      | Some k -> k
      | None -> fail c "thread header must be P<k>"
    else fail c "thread header must be P<k>"
  in
  expect c Lexer.LPAR;
  (* A parameter is a declaration such as [int *x], named by its last
     identifier.  Types are not checked, but a location listed twice is
     an error, as a duplicate parameter is to a C compiler. *)
  let add seen = function
    | Some x when List.mem x seen ->
        fail c (Printf.sprintf "P%d lists location %s twice" tid x)
    | Some x -> x :: seen
    | None -> seen
  in
  let rec params depth name seen =
    match peek c with
    | Lexer.RPAR when depth = 0 ->
        ignore (add seen name);
        junk c
    | Lexer.COMMA when depth = 0 ->
        let seen = add seen name in
        junk c;
        params depth None seen
    | Lexer.RPAR ->
        junk c;
        params (depth - 1) name seen
    | Lexer.LPAR ->
        junk c;
        params (depth + 1) name seen
    | Lexer.ID x ->
        junk c;
        params depth (Some x) seen
    | Lexer.EOF -> fail c "unterminated parameter list"
    | _ ->
        junk c;
        params depth name seen
  in
  params 0 None [];
  expect c Lexer.LBRACE;
  let rec go acc regs =
    match peek c with
    | Lexer.RBRACE ->
        junk c;
        List.rev acc
    | _ ->
        let stmts, regs = parse_stmt c regs in
        go (List.rev_append stmts acc) regs
  in
  (tid, go [] [])

(* ------------------------------------------------------------------ *)
(* Init section and final condition                                    *)
(* ------------------------------------------------------------------ *)

let parse_cvalue c =
  match peek c with
  | Lexer.AMP ->
      junk c;
      VAddr (ident c)
  | _ -> VInt (int_lit c)

let parse_init c =
  (* { x=0; y=&z; } — also tolerates type prefixes like [int x = 0]. *)
  expect c Lexer.LBRACE;
  let rec go acc =
    match peek c with
    | Lexer.RBRACE ->
        junk c;
        List.rev acc
    | Lexer.SEMI ->
        junk c;
        go acc
    | _ ->
        let x = ident c in
        let x = if x = "int" then ident c else x in
        expect c Lexer.EQ;
        let v = parse_cvalue c in
        (match peek c with Lexer.SEMI -> junk c | _ -> ());
        go ((x, v) :: acc)
  in
  go []

let rec parse_cond c = parse_cond_or c

and parse_cond_or c =
  let lhs = parse_cond_and c in
  match peek c with
  | Lexer.BSLASHSLASH ->
      junk c;
      Or (lhs, parse_cond_or c)
  | _ -> lhs

and parse_cond_and c =
  let lhs = parse_cond_atom c in
  match peek c with
  | Lexer.SLASHBSLASH ->
      junk c;
      And (lhs, parse_cond_and c)
  | _ -> lhs

and parse_cond_atom c =
  match peek c with
  | Lexer.TILDE | Lexer.BANG ->
      junk c;
      Not (parse_cond_atom c)
  | Lexer.ID "not" ->
      junk c;
      Not (parse_cond_atom c)
  | Lexer.ID "true" ->
      junk c;
      Ctrue
  | Lexer.LPAR ->
      junk c;
      let co = parse_cond c in
      expect c Lexer.RPAR;
      co
  | Lexer.INT tid when peek2 c = Lexer.COLON ->
      junk c;
      junk c;
      let r = ident c in
      expect c Lexer.EQ;
      Atom (Reg_eq (tid, r, parse_cvalue c))
  | Lexer.ID x ->
      junk c;
      expect c Lexer.EQ;
      Atom (Mem_eq (x, parse_cvalue c))
  | _ -> fail c "expected condition"

(* ------------------------------------------------------------------ *)
(* Whole test                                                          *)
(* ------------------------------------------------------------------ *)

let parse_test c =
  (* Header: C <name> (or LK <name>). *)
  (match peek c with
  | Lexer.ID ("C" | "LK") -> junk c
  | _ -> fail c "test must start with C or LK");
  (* Test names are free-form up to the init brace: they may contain [+],
     [-] and digits (e.g. 2+2W); accept any tokens until LBRACE. *)
  let buf = Buffer.create 16 in
  let rec eat_name () =
    match peek c with
    | Lexer.LBRACE -> ()
    | Lexer.EOF -> fail c "unexpected end of test"
    | t ->
        junk c;
        Buffer.add_string buf (Lexer.to_string t);
        eat_name ()
  in
  eat_name ();
  let name = Buffer.contents buf in
  let init = parse_init c in
  let rec threads acc =
    match peek c with
    | Lexer.ID s when String.length s >= 2 && s.[0] = 'P' && s <> "Pb" ->
        let tid, body = parse_thread c in
        threads ((tid, body) :: acc)
    | _ -> List.rev acc
  in
  let tl = threads [] in
  if tl = [] then fail c "test has no threads";
  let n = 1 + List.fold_left (fun m (t, _) -> max m t) 0 tl in
  let arr = Array.make n [] in
  List.iter (fun (t, body) -> arr.(t) <- body) tl;
  (* skip an optional locations [...] clause *)
  (match peek c with
  | Lexer.ID "locations" ->
      junk c;
      expect c Lexer.LBRACK;
      let rec skip () =
        match peek c with
        | Lexer.RBRACK -> junk c
        | Lexer.EOF -> fail c "unterminated locations clause"
        | _ ->
            junk c;
            skip ()
      in
      skip ()
  | _ -> ());
  let quant =
    match peek c with
    | Lexer.ID "exists" ->
        junk c;
        Q_exists
    | Lexer.TILDE when peek2 c = Lexer.ID "exists" ->
        junk c;
        junk c;
        Q_not_exists
    | Lexer.ID "forall" ->
        junk c;
        Q_forall
    | _ -> fail c "expected exists / ~exists / forall"
  in
  let cond = parse_cond c in
  (match peek c with
  | Lexer.EOF -> ()
  | _ -> fail c "trailing tokens after condition");
  { name; init; threads = arr; quant; cond }

let parse_string src =
  let c = { toks = Lexer.tokens src } in
  parse_test c
