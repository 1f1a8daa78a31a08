(** Multi-version code generation (§IV-B).

    "When the code generator receives a set of representative problem
    sizes, it can generate different code versions targeted at each
    representative problem size. [...] the kernel is selected at runtime
    based on the closest representative"; every generated kernel still
    accepts arbitrary extents.

    This module plans one kernel per representative size, selects the
    nearest variant for an actual problem size (log-space distance over
    extents), and emits a single CUDA translation unit containing every
    kernel plus a runtime dispatcher. *)

open Tc_tensor
open Tc_expr

type variant = {
  name : string;  (** kernel symbol, e.g. [cogent_ab_ac_cb_v0] *)
  sizes : Sizes.t;  (** the representative this version was tuned for *)
  plan : Plan.t;
}

type t = private { ast : Ast.t; variants : variant list }

val generate_ctx : Ctx.t -> Ast.t -> Sizes.t list -> (t, Driver.error) result
(** One plan per representative size (each through the full
    enumerate/prune/rank/refine pipeline under the given context).
    [Driver.Bad_problem] on an invalid contraction, an empty size list, or
    a size map that does not cover the contraction. *)

val distance : Sizes.t -> Sizes.t -> Index.t list -> float
(** Sum over the given indices of [|log(Na / Nb)|] — the closeness measure
    used for runtime selection. *)

val select : t -> Sizes.t -> variant
(** The variant whose representative is nearest to the actual size.
    @raise Invalid_argument if the size map does not cover the
    contraction's indices. *)

val emit : t -> string
(** All kernels, their launchers, and a dispatcher
    [<base>_dispatch(d_C, d_A, d_B, N..., stream)] that picks the nearest
    representative at runtime — one compilable translation unit. *)
