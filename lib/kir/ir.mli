(** Typed kernel IR for the four-phase contraction kernels of Algorithm 1.

    A {!kernel} is not a flat statement list: its [body] is the
    block schedule of Algorithm 1 — the phases (GMEM→SMEM staging,
    SMEM→register loads feeding register-tile outer products, guarded
    coalesced stores), the named fences between them, the serial step loop
    and, under a pipelined schema, the prologue and the next-step prefetch
    guard.  {!Lower} builds that schedule once per schema; backends only
    choose how a phase and a fence print — the GPU printers emit a phase
    inline and a fence as real barriers, while the C-host printer wraps
    each phase in explicit thread-grid loops so the same IR runs on a CPU.

    Everything inside a phase is an ordinary typed statement over integer and
    scalar expressions, which is what the static checks ({!Check})
    traverse. *)

open Tc_tensor
open Tc_gpu

(** {1 Configuration spec}

    The lowering input: everything {!Lower.kernel} needs to know about one
    plan, stated without reference to the planner's own types so that this
    library sits below [cogent.core] in the dependency order. *)

type binding = { index : Index.t; tile : int }

type spec = {
  name : string;  (** kernel symbol name *)
  precision : Precision.t;
  schema : Schema.t;
      (** kernel schema: [Classic] is the synchronous ladder of Algorithm 1;
          the pipelined schemas double-buffer the SMEM slabs and stage tile
          [t+1] while computing tile [t] (see {!Schema}) *)
  lhs : Index.t list;  (** canonical lhs operand layout, FVI first *)
  rhs : Index.t list;
  out : Index.t list;
  externals : Index.t list;  (** output layout order *)
  internals : Index.t list;
  tbx : binding list;
  regx : binding list;
  tby : binding list;
  regy : binding list;
  tbk : binding list;
  grid : Index.t list;  (** leftover externals, implicit tile 1 *)
  extents : (Index.t * int) list;  (** representative extents, every index *)
}

val tile_of : spec -> Index.t -> int
(** Tile of any index (1 for grid indices). @raise Not_found otherwise. *)

val extent_of : spec -> Index.t -> int
(** Representative extent. @raise Not_found for foreign indices. *)

val all_indices : spec -> Index.t list
(** Externals (output order) followed by internals. *)

val threads_x : spec -> int
val threads_y : spec -> int
val threads : spec -> int
val size_regx : spec -> int
val size_regy : spec -> int
val size_tbk : spec -> int

val slab_elems : spec -> Index.t list -> int
(** Shared-memory slab elements of an operand: product of its tiles. *)

(** {1 Expressions and statements} *)

type ty = Int | I64 | Bool | Scalar

type builtin =
  | Thread_x  (** [threadIdx.x] / [get_local_id(0)] / host loop variable *)
  | Thread_y
  | Block_flat  (** flattened block id: [blockIdx.x] / [get_group_id(0)] *)

type expr =
  | Int_lit of int
  | I64_lit of int
  | Scalar_zero  (** additive identity of the kernel's scalar type *)
  | Var of string
  | Builtin of builtin
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Mod of expr * expr
  | Lt of expr * expr  (** [<], used only in guards *)
  | And of expr * expr  (** bitwise [&] of guard flags *)
  | Cast of ty * expr
  | Select of expr * expr * expr  (** [cond ? a : b] *)
  | Index of string * expr  (** array read [a\[e\]] *)

type lvalue = Lvar of string | Larr of string * expr

type stmt =
  | Decl of { ty : ty; const : bool; name : string; init : expr option }
  | Assign of lvalue * expr
  | Div_assign of lvalue * expr  (** [v /= e] *)
  | Fma of { acc : lvalue; a : expr; b : expr }  (** [acc += a * b] *)
  | For of {
      var : string;
      start : expr;
      bound : expr;  (** loop runs while [var < bound] *)
      step : expr;  (** increment; [Int_lit 1] prints as [++var] *)
      unroll : bool;
      body : stmt list;
    }
  | If of expr * stmt list
  | Scope of stmt list  (** brace-scoped block *)
  | Comment of string

type array_decl = { a_name : string; elems : int }

(** {1 Block schedule}

    What every thread of a block executes, in order.  A {!phase} is the
    per-thread work between two fences; {!Uniform} statements compute the
    same value in every thread (step decodes, SMEM-half selectors), so an
    emulating backend runs them once per block. *)

type phase_kind =
  | Init  (** accumulator zeroing *)
  | Stage  (** phase (1): cooperative GMEM→SMEM staging *)
  | Compute  (** phases (2)+(3): SMEM→REG loads, outer products *)
  | Store  (** phase (4): guarded REG→GMEM stores *)

type phase = {
  kind : phase_kind;
  async : bool;
      (** the phase's guarded SMEM stores may print as asynchronous copies
          (set by {!Lower} on the Stage phases of pipelined schemas only;
          a dialect without async copies keeps them synchronous) *)
  body : stmt list;
}

type fence =
  | Barrier  (** block-wide barrier between phases that share SMEM *)
  | After_prologue  (** closes the pipelined prologue's staging of tile 0 *)
  | After_prefetch
      (** follows each in-flight prefetch: the tile staged one step earlier
          must be resident and visible before the compute that reads it *)

type block_stmt =
  | Uniform of stmt list  (** block-uniform statements *)
  | Phase of phase
  | Fence of fence
  | Scoped of block_stmt list  (** brace-scoped block *)
  | Step_loop of block_stmt list
      (** the serial K sweep: {!step_var} runs from 0 up to
          {!num_steps_var} *)
  | If_next_step of block_stmt list
      (** runs its body while a tile remains to prefetch
          ([step + 1 < num_steps]) *)

(** {1 Kernels} *)

type kernel = {
  spec : spec;
  smem : array_decl list;
      (** shared-memory slabs, [s_A; s_B] — double-length (two halves of
          [elems/2]) under a pipelined schema *)
  regs : array_decl list;
      (** staging vectors [r_A; r_B] — live only within one compute phase *)
  acc : array_decl;  (** accumulator tile [r_C] — lives across barriers *)
  grid_setup : stmt list;  (** GMEM strides and per-external chunk counts *)
  block_setup : stmt list;  (** block bases decoded from {!Block_flat} *)
  step_counts : stmt list;  (** per-internal step counts and [num_steps] *)
  thread_init : stmt list;  (** tx/ty/tid and thread-local coordinates *)
  body : block_stmt list;
      (** the block schedule, from accumulator zeroing to the stores: the
          classic ladder (stage, barrier, compute, barrier per step) or the
          pipelined prologue and two-slab rotation *)
}

val num_steps_var : string
(** Name of the step-count variable the step loop ranges over. *)

val step_var : string
(** Name of the step loop's counter. *)

val tid_var : string
(** Name of the flattened thread id declared by [thread_init]. *)

(** {1 Traversals} *)

val offset_array : name:string -> offset:expr -> stmt list -> stmt list
(** Adds [offset] to every index into array [name] (reads, writes and
    accumulations) — how the C-host backend promotes per-thread register
    tiles to block-wide arrays. *)

(** {1 Concrete evaluation}

    A small interpreter over the integer fragment of the IR, used by the
    static checks to observe the addresses a warp would touch.  Scalar reads
    evaluate to 0; every array access is reported to [on_access]. *)

type access_kind = Read | Write

type env

val make_env :
  ?builtin:(builtin -> int)
  -> ?on_access:(access_kind -> string -> int -> unit)
  -> unit
  -> env

val set_var : env -> string -> int -> unit
val get_var : env -> string -> int option
val eval_expr : env -> expr -> int
val exec : env -> stmt list -> unit
(** Executes statements, including full loop iteration.  [on_access] fires
    for every array element touched. @raise Failure on unbound variables. *)
