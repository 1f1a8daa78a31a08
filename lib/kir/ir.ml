open Tc_tensor
open Tc_gpu

(* ---- spec ---- *)

type binding = { index : Index.t; tile : int }

type spec = {
  name : string;
  precision : Precision.t;
  schema : Schema.t;
  lhs : Index.t list;
  rhs : Index.t list;
  out : Index.t list;
  externals : Index.t list;
  internals : Index.t list;
  tbx : binding list;
  regx : binding list;
  tby : binding list;
  regy : binding list;
  tbk : binding list;
  grid : Index.t list;
  extents : (Index.t * int) list;
}

let find_binding bindings i =
  List.find_opt (fun b -> Index.equal b.index i) bindings

let tile_of s i =
  match
    find_binding (s.tbx @ s.regx @ s.tby @ s.regy @ s.tbk) i
  with
  | Some b -> b.tile
  | None ->
      if List.exists (Index.equal i) s.grid then 1 else raise Not_found

let extent_of s i =
  match List.find_opt (fun (j, _) -> Index.equal i j) s.extents with
  | Some (_, e) -> e
  | None -> raise Not_found

let all_indices s = s.externals @ s.internals

let size bindings = List.fold_left (fun acc b -> acc * b.tile) 1 bindings
let threads_x s = size s.tbx
let threads_y s = size s.tby
let threads s = threads_x s * threads_y s
let size_regx s = size s.regx
let size_regy s = size s.regy
let size_tbk s = size s.tbk

let slab_elems s indices =
  List.fold_left (fun acc i -> acc * tile_of s i) 1 indices

(* ---- expressions and statements ---- *)

type ty = Int | I64 | Bool | Scalar

type builtin = Thread_x | Thread_y | Block_flat

type expr =
  | Int_lit of int
  | I64_lit of int
  | Scalar_zero
  | Var of string
  | Builtin of builtin
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Mod of expr * expr
  | Lt of expr * expr
  | And of expr * expr
  | Cast of ty * expr
  | Select of expr * expr * expr
  | Index of string * expr

type lvalue = Lvar of string | Larr of string * expr

type stmt =
  | Decl of { ty : ty; const : bool; name : string; init : expr option }
  | Assign of lvalue * expr
  | Div_assign of lvalue * expr
  | Fma of { acc : lvalue; a : expr; b : expr }
  | For of {
      var : string;
      start : expr;
      bound : expr;
      step : expr;
      unroll : bool;
      body : stmt list;
    }
  | If of expr * stmt list
  | Scope of stmt list
  | Comment of string

type array_decl = { a_name : string; elems : int }

type phase_kind = Init | Stage | Compute | Store
type phase = { kind : phase_kind; async : bool; body : stmt list }
type fence = Barrier | After_prologue | After_prefetch

type block_stmt =
  | Uniform of stmt list
  | Phase of phase
  | Fence of fence
  | Scoped of block_stmt list
  | Step_loop of block_stmt list
  | If_next_step of block_stmt list

type kernel = {
  spec : spec;
  smem : array_decl list;
  regs : array_decl list;
  acc : array_decl;
  grid_setup : stmt list;
  block_setup : stmt list;
  step_counts : stmt list;
  thread_init : stmt list;
  body : block_stmt list;
}

let num_steps_var = "num_steps"
let step_var = "step"
let tid_var = "tid"

(* ---- traversals ---- *)

(* Bottom-up rewrite: children first, then [f] on the rebuilt node.  The
   result of [f] is not re-traversed. *)
let rec rw_expr f e =
  let e' =
    match e with
    | Int_lit _ | I64_lit _ | Scalar_zero | Var _ | Builtin _ -> e
    | Add (a, b) -> Add (rw_expr f a, rw_expr f b)
    | Sub (a, b) -> Sub (rw_expr f a, rw_expr f b)
    | Mul (a, b) -> Mul (rw_expr f a, rw_expr f b)
    | Div (a, b) -> Div (rw_expr f a, rw_expr f b)
    | Mod (a, b) -> Mod (rw_expr f a, rw_expr f b)
    | Lt (a, b) -> Lt (rw_expr f a, rw_expr f b)
    | And (a, b) -> And (rw_expr f a, rw_expr f b)
    | Cast (t, a) -> Cast (t, rw_expr f a)
    | Select (c, a, b) -> Select (rw_expr f c, rw_expr f a, rw_expr f b)
    | Index (n, a) -> Index (n, rw_expr f a)
  in
  f e'

let rec map_stmts ~fe ~fl stmts =
  let e x = rw_expr fe x in
  let lv = function
    | Lvar _ as l -> fl l
    | Larr (n, i) -> fl (Larr (n, e i))
  in
  List.map
    (fun s ->
      match s with
      | Decl d -> Decl { d with init = Option.map e d.init }
      | Assign (l, x) -> Assign (lv l, e x)
      | Div_assign (l, x) -> Div_assign (lv l, e x)
      | Fma { acc; a; b } -> Fma { acc = lv acc; a = e a; b = e b }
      | For f -> For
          { f with start = e f.start; bound = e f.bound; step = e f.step;
            body = map_stmts ~fe ~fl f.body }
      | If (c, body) -> If (e c, map_stmts ~fe ~fl body)
      | Scope body -> Scope (map_stmts ~fe ~fl body)
      | Comment _ -> s)
    stmts

let offset_array ~name ~offset stmts =
  let fe = function
    | Index (n, e) when String.equal n name -> Index (n, Add (offset, e))
    | e -> e
  in
  let fl = function
    | Larr (n, e) when String.equal n name -> Larr (n, Add (offset, e))
    | l -> l
  in
  map_stmts ~fe ~fl stmts

(* ---- concrete evaluation ---- *)

type access_kind = Read | Write

type env = {
  vars : (string, int) Hashtbl.t;
  builtin : builtin -> int;
  on_access : access_kind -> string -> int -> unit;
}

let make_env ?(builtin = fun _ -> 0) ?(on_access = fun _ _ _ -> ()) () =
  { vars = Hashtbl.create 64; builtin; on_access }

let set_var env n v = Hashtbl.replace env.vars n v
let get_var env n = Hashtbl.find_opt env.vars n

let lookup env n =
  match Hashtbl.find_opt env.vars n with
  | Some v -> v
  | None -> failwith ("Tc_kir.Ir.eval_expr: unbound variable " ^ n)

let rec eval_expr env = function
  | Int_lit n | I64_lit n -> n
  | Scalar_zero -> 0
  | Var n -> lookup env n
  | Builtin b -> env.builtin b
  | Add (a, b) -> eval_expr env a + eval_expr env b
  | Sub (a, b) -> eval_expr env a - eval_expr env b
  | Mul (a, b) -> eval_expr env a * eval_expr env b
  | Div (a, b) -> eval_expr env a / eval_expr env b
  | Mod (a, b) -> eval_expr env a mod eval_expr env b
  | Lt (a, b) -> if eval_expr env a < eval_expr env b then 1 else 0
  | And (a, b) -> eval_expr env a land eval_expr env b
  | Cast (_, e) -> eval_expr env e
  (* like C, only the chosen branch is evaluated, so guarded loads don't
     report out-of-bounds accesses *)
  | Select (c, a, b) ->
      if eval_expr env c <> 0 then eval_expr env a else eval_expr env b
  | Index (n, e) ->
      let i = eval_expr env e in
      env.on_access Read n i;
      0

let write_lvalue env lv v =
  match lv with
  | Lvar n -> set_var env n v
  | Larr (n, e) ->
      let i = eval_expr env e in
      env.on_access Write n i

let rec exec env stmts = List.iter (exec_stmt env) stmts

and exec_stmt env = function
  | Decl { name; init; _ } ->
      set_var env name (match init with Some e -> eval_expr env e | None -> 0)
  | Assign (lv, e) -> write_lvalue env lv (eval_expr env e)
  | Div_assign (lv, e) -> (
      let d = eval_expr env e in
      match lv with
      | Lvar n -> set_var env n (lookup env n / d)
      | Larr (n, i) -> env.on_access Write n (eval_expr env i))
  | Fma { acc; a; b } ->
      let va = eval_expr env a and vb = eval_expr env b in
      write_lvalue env acc (va * vb)
  | For { var; start; bound; step; body; _ } ->
      let v = ref (eval_expr env start) in
      while !v < eval_expr env bound do
        set_var env var !v;
        exec env body;
        v := !v + eval_expr env step
      done
  | If (c, body) -> if eval_expr env c <> 0 then exec env body
  | Scope body -> exec env body
  | Comment _ -> ()
