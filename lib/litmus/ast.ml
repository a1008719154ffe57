(* Abstract syntax of litmus tests, covering the LK subset of C used by the
   paper (Table 3 and Table 4 primitives, conditionals, register
   arithmetic). *)

type r_annot = R_once | R_acquire
type w_annot = W_once | W_release
type xchg_kind = X_relaxed | X_acquire | X_release | X_full

type fence_kind =
  | F_rmb
  | F_wmb
  | F_mb
  | F_rb_dep
  | F_rcu_lock
  | F_rcu_unlock
  | F_sync_rcu

type binop =
  | Add
  | Sub
  | Band
  | Bor
  | Bxor
  | Eq
  | Neq
  | Lt
  | Gt
  | Le
  | Ge
  | Land
  | Lor

type unop = Neg | Lnot

type reg = string

(* A value computation over registers and constants; reads from shared
   memory never appear inside expressions, only as statements, which keeps
   dependency tracking syntactic. *)
type expr =
  | Const of int
  | Reg of reg
  | Addr of string (* &x : the address of global x, usable as a value *)
  | Binop of binop * expr * expr
  | Unop of unop * expr

(* Where a shared access goes: a named global, or the global whose address
   is held in a register (address dependency). *)
type loc_expr = Sym of string | Deref of reg

type instr =
  | Read of r_annot * reg * loc_expr (* r = READ_ONCE(x) / smp_load_acquire *)
  | Write of w_annot * loc_expr * expr (* WRITE_ONCE / smp_store_release *)
  | Rcu_dereference of reg * loc_expr (* R[once] followed by F[rb-dep] *)
  | Fence of fence_kind
  | Xchg of xchg_kind * reg * loc_expr * expr
  (* cmpxchg(x, old, new): the write happens only if the read returns
     [old]; a failed cmpxchg is just a read and provides no ordering *)
  | Cmpxchg of xchg_kind * reg * loc_expr * expr * expr
  (* atomic_add_return(i, v) and friends: value-returning atomics carry
     the ordering of their kind; void atomics (atomic_add/inc/dec) are
     fully relaxed and provide no ordering [atomic_ops.rst] *)
  | Atomic_add_return of xchg_kind * reg * loc_expr * expr
  | Atomic_add of loc_expr * expr
  | Assign of reg * expr
  | If of expr * instr list * instr list
  (* Section 7: locking emulated with the constructs we already have —
     spin_lock behaves like xchg_acquire on the lock location (only the
     successful acquisition, reading 0, is modelled), spin_unlock like
     smp_store_release. *)
  | Spin_lock of loc_expr
  | Spin_unlock of loc_expr

(* Final-condition values: integers or addresses of globals. *)
type cvalue = VInt of int | VAddr of string

type cond_atom =
  | Reg_eq of int * reg * cvalue (* 0:r1 = 1 *)
  | Mem_eq of string * cvalue (* x = 2 *)

type cond =
  | Atom of cond_atom
  | Not of cond
  | And of cond * cond
  | Or of cond * cond
  | Ctrue

type quantifier = Q_exists | Q_not_exists | Q_forall

type t = {
  name : string;
  init : (string * cvalue) list; (* globals not listed start at 0 *)
  threads : instr list array;
  quant : quantifier;
  cond : cond;
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let rec expr_regs = function
  | Const _ | Addr _ -> []
  | Reg r -> [ r ]
  | Binop (_, a, b) -> expr_regs a @ expr_regs b
  | Unop (_, a) -> expr_regs a

let rec instr_globals i =
  let loc_globals = function Sym x -> [ x ] | Deref _ -> [] in
  let rec expr_globals = function
    | Addr x -> [ x ]
    | Const _ | Reg _ -> []
    | Binop (_, a, b) -> expr_globals a @ expr_globals b
    | Unop (_, a) -> expr_globals a
  in
  match i with
  | Read (_, _, l) | Rcu_dereference (_, l) | Spin_lock l | Spin_unlock l ->
      loc_globals l
  | Write (_, l, e) | Xchg (_, _, l, e) -> loc_globals l @ expr_globals e
  | Cmpxchg (_, _, l, e1, e2) ->
      loc_globals l @ expr_globals e1 @ expr_globals e2
  | Atomic_add_return (_, _, l, e) | Atomic_add (l, e) ->
      loc_globals l @ expr_globals e
  | Assign (_, e) -> expr_globals e
  | Fence _ -> []
  | If (e, t, f) ->
      expr_globals e
      @ List.concat_map instr_globals t
      @ List.concat_map instr_globals f

let cond_globals cond =
  let atom = function
    | Reg_eq (_, _, VAddr x) -> [ x ]
    | Reg_eq _ -> []
    | Mem_eq (x, VAddr y) -> [ x; y ]
    | Mem_eq (x, _) -> [ x ]
  in
  let rec go = function
    | Atom a -> atom a
    | Not c -> go c
    | And (a, b) | Or (a, b) -> go a @ go b
    | Ctrue -> []
  in
  go cond

(* All globals mentioned anywhere in the test, sorted, without dups. *)
let globals t =
  let from_threads =
    Array.to_list t.threads
    |> List.concat_map (List.concat_map instr_globals)
  in
  let from_init =
    List.concat_map
      (fun (x, v) -> match v with VAddr y -> [ x; y ] | VInt _ -> [ x ])
      t.init
  in
  List.sort_uniq String.compare (from_threads @ from_init @ cond_globals t.cond)

(* Deterministic address assignment for &x values: globals are numbered in
   sorted order starting at [addr_base]. *)
let addr_base = 1000

let addresses t =
  List.mapi (fun i x -> (x, addr_base + i)) (globals t)

(* [address_in], [global_in] and [cvalue_in] look up an [addresses t]
   list, for callers that compute it once per test: [addresses] sorts
   the globals on every call. *)
let address_in addresses x =
  match List.assoc_opt x addresses with
  | Some a -> a
  | None -> invalid_arg ("Ast.address_of: unknown global " ^ x)

let global_in addresses a =
  List.find_map (fun (x, a') -> if a = a' then Some x else None) addresses

let cvalue_in addresses = function
  | VInt n -> n
  | VAddr x -> address_in addresses x

let address_of t x = address_in (addresses t) x
let global_of_address t a = global_in (addresses t) a

let init_value t x =
  match List.assoc_opt x t.init with
  | None -> 0
  | Some (VInt n) -> n
  | Some (VAddr y) -> address_of t y

(* An integer needs no address table, and [Exec.holds] calls this for
   every candidate and simulator run. *)
let cvalue_to_int t = function
  | VInt n -> n
  | VAddr _ as v -> cvalue_in (addresses t) v

let has_rcu t =
  let rec in_instr = function
    | Fence (F_rcu_lock | F_rcu_unlock | F_sync_rcu) -> true
    | Rcu_dereference _ -> true
    | If (_, a, b) -> List.exists in_instr a || List.exists in_instr b
    | Read _ | Write _ | Fence _ | Xchg _ | Cmpxchg _ | Atomic_add_return _
    | Atomic_add _ | Assign _ | Spin_lock _ | Spin_unlock _ ->
        false
  in
  Array.exists (List.exists in_instr) t.threads
